#include "wtpg/reference_wtpg.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>

namespace wtpgsched {
namespace {

// Every node reachable from `from` over the oriented out-lists, `from`
// included: a plain BFS.
std::set<TxnId> Reach(const std::map<TxnId, std::vector<TxnId>>& out,
                      TxnId from) {
  std::set<TxnId> seen = {from};
  std::deque<TxnId> queue = {from};
  while (!queue.empty()) {
    const TxnId v = queue.front();
    queue.pop_front();
    for (TxnId w : out.at(v)) {
      if (seen.insert(w).second) queue.push_back(w);
    }
  }
  return seen;
}

template <typename T>
std::string Str(const T& value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string List(const std::vector<TxnId>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    out += (i == 0 ? "" : " ") + Str(ids[i]);
  }
  return out + "]";
}

std::vector<TxnId> Sorted(std::vector<TxnId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

ReferenceWtpg::Key ReferenceWtpg::KeyOf(TxnId a, TxnId b) {
  return a < b ? Key{a, b} : Key{b, a};
}

void ReferenceWtpg::AddNode(TxnId id, double remaining) {
  if (!remaining_.emplace(id, remaining).second) {
    throw std::logic_error("AddNode: duplicate T" + Str(id));
  }
}

void ReferenceWtpg::AddConflictEdge(TxnId a, TxnId b, double weight_ab,
                                    double weight_ba) {
  Edge edge;
  edge.weight_ab = a < b ? weight_ab : weight_ba;
  edge.weight_ba = a < b ? weight_ba : weight_ab;
  if (!edges_.emplace(KeyOf(a, b), edge).second) {
    throw std::logic_error("AddConflictEdge: duplicate edge");
  }
}

void ReferenceWtpg::RemoveNode(TxnId id) {
  remaining_.erase(id);
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->first.first == id || it->first.second == id) {
      it = edges_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReferenceWtpg::SetRemaining(TxnId id, double remaining) {
  remaining_.at(id) = remaining;
}

ReferenceWtpg::Adjacency ReferenceWtpg::OutLists() const {
  Adjacency out;
  for (const auto& node : remaining_) out[node.first];
  for (const auto& [key, e] : edges_) {
    if (!e.oriented) continue;
    out[e.from].push_back(e.from == key.first ? key.second : key.first);
  }
  return out;
}

bool ReferenceWtpg::HasPath(TxnId from, TxnId to) const {
  return Reach(OutLists(), from).count(to) > 0;
}

bool ReferenceWtpg::CloseFixpoint() {
  // Each pass orients against the reachability computed at its start; the
  // loop ends on a pass that orients nothing, when that reachability is
  // exact. A cycle shows as a pair connected both ways, or, if a pass
  // oriented against stale reachability, in the final acyclicity check.
  for (bool changed = true; changed;) {
    changed = false;
    const Adjacency out = OutLists();
    std::map<TxnId, std::set<TxnId>> reach;
    for (const auto& node : remaining_) {
      reach[node.first] = Reach(out, node.first);
    }
    for (auto& [key, e] : edges_) {
      if (e.oriented) continue;
      const bool ab = reach[key.first].count(key.second) > 0;
      const bool ba = reach[key.second].count(key.first) > 0;
      if (ab && ba) return false;
      if (!ab && !ba) continue;
      e.oriented = true;
      e.from = ab ? key.first : key.second;
      changed = true;
    }
  }
  const Adjacency out = OutLists();
  for (const auto& [key, e] : edges_) {
    if (!e.oriented) continue;
    const TxnId to = e.from == key.first ? key.second : key.first;
    if (Reach(out, to).count(e.from) > 0) return false;
  }
  return true;
}

bool ReferenceWtpg::OrientBatch(TxnId from, const std::vector<TxnId>& targets,
                                bool keep) {
  ReferenceWtpg next = *this;
  for (TxnId u : targets) {
    // All new edges leave `from`, so from -> u closes a cycle exactly when
    // u already reaches `from`.
    if (u == from || next.HasPath(u, from)) return false;
    const Key key = KeyOf(from, u);
    if (sparse_ && edges_.count(key) == 0) {
      edges_[key] = Edge{};  // On demand: survives failure and discard.
      next.edges_[key] = Edge{};
    }
    Edge& e = next.edges_.at(key);
    if (e.oriented) continue;  // Already from -> u.
    e.oriented = true;
    e.from = from;
  }
  if (!sparse_ && !next.CloseFixpoint()) return false;
  if (keep) *this = std::move(next);
  return true;
}

bool ReferenceWtpg::TryOrient(TxnId from, TxnId to) {
  const Edge& e = edges_.at(KeyOf(from, to));
  if (e.oriented) return e.from == from;
  return OrientBatch(from, {to}, /*keep=*/true);
}

bool ReferenceWtpg::CanOrient(TxnId from, TxnId to) const {
  const auto it = edges_.find(KeyOf(from, to));
  if (it == edges_.end()) return false;
  if (it->second.oriented) return it->second.from == from;
  ReferenceWtpg copy = *this;
  return copy.OrientBatch(from, {to}, /*keep=*/true);
}

void ReferenceWtpg::ForceOrientSparse(TxnId from, TxnId to) {
  Edge& e = edges_[KeyOf(from, to)];
  if (e.oriented) {
    if (e.from != from) throw std::logic_error("ForceOrientSparse reversal");
    return;
  }
  e.oriented = true;
  e.from = from;
}

bool ReferenceWtpg::WouldCycle(TxnId from,
                               const std::vector<TxnId>& targets) const {
  for (TxnId u : targets) {
    if (u == from || HasPath(u, from)) return true;
  }
  return false;
}

double ReferenceWtpg::EvaluateGrant(TxnId grantee,
                                    const std::vector<TxnId>& targets) const {
  ReferenceWtpg copy = *this;
  if (!copy.OrientBatch(grantee, targets, /*keep=*/true)) {
    return kInfiniteCost;
  }
  return copy.CriticalPath();
}

double ReferenceWtpg::CriticalPath() const {
  // dist(v) = max(remaining(v), max over oriented u -> v of
  // dist(u) + w(u -> v)); the critical path is the largest dist.
  std::map<TxnId, std::vector<std::pair<TxnId, double>>> in;
  for (const auto& [key, e] : edges_) {
    if (!e.oriented) continue;
    const bool forward = e.from == key.first;
    in[forward ? key.second : key.first].emplace_back(
        e.from, forward ? e.weight_ab : e.weight_ba);
  }
  std::map<TxnId, double> dist;
  std::function<double(TxnId)> eval = [&](TxnId v) -> double {
    const auto it = dist.find(v);
    if (it != dist.end()) return it->second;
    double best = remaining_.at(v);
    for (const auto& [u, w] : in[v]) best = std::max(best, eval(u) + w);
    dist[v] = best;
    return best;
  };
  double critical = 0.0;
  for (const auto& node : remaining_) {
    critical = std::max(critical, eval(node.first));
  }
  return critical;
}

std::string ReferenceWtpg::Diff(const Wtpg& production) const {
  std::vector<TxnId> nodes;
  for (const auto& node : remaining_) nodes.push_back(node.first);
  if (production.Nodes() != nodes) {
    return "nodes " + List(production.Nodes()) + " vs reference " +
           List(nodes);
  }
  for (const auto& [id, remaining] : remaining_) {
    if (production.remaining(id) != remaining) {
      return "remaining(T" + Str(id) + ") " + Str(production.remaining(id)) +
             " vs reference " + Str(remaining);
    }
  }
  if (production.num_edges() != edges_.size()) {
    return Str(production.num_edges()) + " edges vs reference " +
           Str(edges_.size());
  }
  std::map<TxnId, std::vector<TxnId>> neighbors;
  std::map<TxnId, std::vector<TxnId>> out;
  std::map<TxnId, std::vector<TxnId>> in;
  std::vector<std::pair<TxnId, TxnId>> unoriented;
  for (const auto& [key, e] : edges_) {
    const auto [a, b] = key;
    const std::string name = "edge (T" + Str(a) + ",T" + Str(b) + ")";
    const Wtpg::Edge* pe = production.FindEdge(a, b);
    if (pe == nullptr) return name + " missing";
    if (pe->a != a || pe->b != b || pe->weight_ab != e.weight_ab ||
        pe->weight_ba != e.weight_ba || pe->oriented != e.oriented ||
        pe->from != e.from) {
      return name + " is {" + Str(pe->weight_ab) + ", " + Str(pe->weight_ba) +
             ", oriented " + Str(pe->oriented) + ", from T" + Str(pe->from) +
             "} vs reference {" + Str(e.weight_ab) + ", " + Str(e.weight_ba) +
             ", oriented " + Str(e.oriented) + ", from T" + Str(e.from) + "}";
    }
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
    if (!e.oriented) {
      unoriented.emplace_back(a, b);
      continue;
    }
    const TxnId to = e.from == a ? b : a;
    out[e.from].push_back(to);
    in[to].push_back(e.from);
  }
  for (TxnId id : nodes) {
    const std::string node = "T" + Str(id);
    if (Sorted(production.Neighbors(id)) != Sorted(neighbors[id])) {
      return node + " neighbors " + List(production.Neighbors(id));
    }
    if (Sorted(production.OutNeighbors(id)) != Sorted(out[id])) {
      return node + " out " + List(production.OutNeighbors(id)) +
             " vs reference " + List(Sorted(out[id]));
    }
    if (Sorted(production.InNeighbors(id)) != Sorted(in[id])) {
      return node + " in " + List(production.InNeighbors(id)) +
             " vs reference " + List(Sorted(in[id]));
    }
  }
  if (production.UnorientedEdges() != unoriented) {
    return "unoriented edge lists differ";
  }
  return "";
}

std::string RollbackDiff(const Wtpg& before, const Wtpg& after) {
  if (after.Nodes() != before.Nodes()) {
    return "nodes " + List(after.Nodes()) + " vs before " +
           List(before.Nodes());
  }
  for (TxnId id : before.Nodes()) {
    const std::string node = "T" + Str(id);
    if (after.remaining(id) != before.remaining(id)) {
      return node + " remaining changed";
    }
    const std::vector<TxnId> was = before.Neighbors(id);
    if (after.Neighbors(id) != was) {
      return node + " neighbors " + List(after.Neighbors(id)) +
             " vs before " + List(was);
    }
    if (after.OutNeighbors(id) != before.OutNeighbors(id)) {
      return node + " out " + List(after.OutNeighbors(id)) + " vs before " +
             List(before.OutNeighbors(id));
    }
    if (after.InNeighbors(id) != before.InNeighbors(id)) {
      return node + " in " + List(after.InNeighbors(id)) + " vs before " +
             List(before.InNeighbors(id));
    }
    for (TxnId nb : was) {
      const Wtpg::Edge* e0 = before.FindEdge(id, nb);
      const Wtpg::Edge* e1 = after.FindEdge(id, nb);
      if (e1 == nullptr || e1->weight_ab != e0->weight_ab ||
          e1->weight_ba != e0->weight_ba || e1->oriented != e0->oriented ||
          e1->from != e0->from) {
        return "edge (T" + Str(id) + ",T" + Str(nb) + ") changed";
      }
    }
  }
  if (after.num_edges() != before.num_edges()) {
    return "edge count changed";
  }
  return "";
}

bool CanOrient(Wtpg& g, TxnId from, TxnId to) {
  const Wtpg::Edge* e = g.FindEdge(from, to);
  if (e == nullptr) return false;
  if (e->oriented) return e->from == from;
  Wtpg::OrientJournal journal;
  const bool ok = g.OrientBatch(from, {to}, &journal);
  g.Rollback(&journal);
  return ok;
}

double BruteForceOptimalCriticalPath(const Wtpg& g,
                                     const std::vector<TxnId>& chain) {
  std::vector<std::pair<TxnId, TxnId>> free_edges;
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    const Wtpg::Edge* e = g.FindEdge(chain[i], chain[i + 1]);
    if (e == nullptr) throw std::logic_error("chain pair without an edge");
    if (!e->oriented) free_edges.emplace_back(chain[i], chain[i + 1]);
  }
  const size_t n = free_edges.size();
  if (n > 20) throw std::logic_error("brute force limited to small chains");
  double best = kInfiniteCost;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    Wtpg copy = g;
    bool feasible = true;
    for (size_t i = 0; i < n && feasible; ++i) {
      const bool fwd = (mask >> i) & 1;
      const auto [a, b] = free_edges[i];
      feasible = fwd ? copy.TryOrient(a, b) : copy.TryOrient(b, a);
    }
    if (feasible) best = std::min(best, copy.CriticalPath());
  }
  return best;
}

}  // namespace wtpgsched
