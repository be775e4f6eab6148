#include "wtpg/wtpg.h"

#include <algorithm>

#include "util/logging.h"

namespace wtpgsched {
namespace {

void EraseValue(std::vector<int32_t>* list, int32_t value) {
  list->erase(std::remove(list->begin(), list->end(), value), list->end());
}

}  // namespace

int32_t Wtpg::SlotOf(TxnId id) const {
  const int32_t slot = SlotOrNull(id);
  WTPG_CHECK(slot >= 0) << "T" << id << " not in WTPG";
  return slot;
}

void Wtpg::AddNode(TxnId id, double remaining) {
  WTPG_CHECK_GE(remaining, 0.0);
  WTPG_CHECK_NE(id, kInvalidTxn);
  const auto [slot_entry, inserted] =
      slot_of_.Insert(static_cast<uint64_t>(id));
  WTPG_CHECK(inserted) << "node T" << id << " already in WTPG";
  int32_t slot;
  if (free_head_ >= 0) {
    slot = free_head_;
    free_head_ = slots_[static_cast<size_t>(slot)].next_free;
  } else {
    slot = static_cast<int32_t>(slots_.size());
    slots_.emplace_back();
  }
  *slot_entry = slot;
  Node& node = slots_[static_cast<size_t>(slot)];
  node.id = id;
  node.remaining = remaining;
  node.next_free = -1;
  // neighbors/out/in/in_w were cleared on removal and keep their capacity;
  // stale epoch marks can never equal a future epoch.
}

void Wtpg::AddConflictEdge(TxnId a, TxnId b, double weight_ab,
                           double weight_ba) {
  WTPG_CHECK_NE(a, b);
  WTPG_CHECK_GE(weight_ab, 0.0);
  WTPG_CHECK_GE(weight_ba, 0.0);
  const int32_t sa = SlotOrNull(a);
  const int32_t sb = SlotOrNull(b);
  WTPG_CHECK(sa >= 0) << "T" << a;
  WTPG_CHECK(sb >= 0) << "T" << b;
  InsertEdge(sa, sb,
             a < b ? Edge{a, b, weight_ab, weight_ba, false, kInvalidTxn}
                   : Edge{b, a, weight_ba, weight_ab, false, kInvalidTxn});
}

void Wtpg::RemoveNode(TxnId id) {
  const int32_t slot = SlotOrNull(id);
  WTPG_CHECK(slot >= 0) << "RemoveNode: T" << id << " not in WTPG";
  Node& node = slots_[static_cast<size_t>(slot)];
  for (int32_t nb : node.neighbors) {
    WTPG_CHECK(edges_.Erase(PackSlots(slot, nb)))
        << "RemoveNode: edge not in table";
    Node& other = slots_[static_cast<size_t>(nb)];
    EraseValue(&other.neighbors, slot);
    EraseValue(&other.out, slot);
    for (size_t i = other.in.size(); i-- > 0;) {
      if (other.in[i] == slot) {
        other.in.erase(other.in.begin() + static_cast<std::ptrdiff_t>(i));
        other.in_w.erase(other.in_w.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  node.neighbors.clear();
  node.out.clear();
  node.in.clear();
  node.in_w.clear();
  node.id = kInvalidTxn;
  node.next_free = free_head_;
  free_head_ = slot;
  slot_of_.Erase(static_cast<uint64_t>(id));
}

void Wtpg::SetRemaining(TxnId id, double remaining) {
  WTPG_CHECK_GE(remaining, 0.0);
  slots_[static_cast<size_t>(SlotOf(id))].remaining = remaining;
}

double Wtpg::remaining(TxnId id) const {
  return slots_[static_cast<size_t>(SlotOf(id))].remaining;
}

Wtpg::Edge* Wtpg::InsertEdge(int32_t sa, int32_t sb, const Edge& edge) {
  const auto [entry, inserted] = edges_.Insert(PackSlots(sa, sb));
  WTPG_CHECK(inserted) << "edge (T" << edge.a << ",T" << edge.b
                       << ") already in WTPG";
  *entry = edge;
  slots_[static_cast<size_t>(sa)].neighbors.push_back(sb);
  slots_[static_cast<size_t>(sb)].neighbors.push_back(sa);
  return entry;
}

const Wtpg::Edge* Wtpg::FindEdge(TxnId a, TxnId b) const {
  const int32_t sa = SlotOrNull(a);
  const int32_t sb = SlotOrNull(b);
  if (sa < 0 || sb < 0) return nullptr;
  return FindEdgeBySlots(sa, sb);
}

bool Wtpg::IsOriented(TxnId from, TxnId to) const {
  const Edge* e = FindEdge(from, to);
  return e != nullptr && e->oriented && e->from == from;
}

void Wtpg::MarkOriented(int32_t from, int32_t to, OrientJournal* journal) {
  Edge* e = MutableEdgeBySlots(from, to);
  WTPG_CHECK(e != nullptr);
  WTPG_CHECK(!e->oriented);
  Node& f = slots_[static_cast<size_t>(from)];
  Node& t = slots_[static_cast<size_t>(to)];
  e->oriented = true;
  e->from = f.id;
  f.out.push_back(to);
  t.in.push_back(from);
  t.in_w.push_back(f.id == e->a ? e->weight_ab : e->weight_ba);
  if (journal != nullptr) journal->records_.push_back({f.id, t.id});
}

void Wtpg::UnmarkOriented(int32_t from, int32_t to) {
  Edge* e = MutableEdgeBySlots(from, to);
  WTPG_CHECK(e != nullptr);
  Node& f = slots_[static_cast<size_t>(from)];
  Node& t = slots_[static_cast<size_t>(to)];
  WTPG_CHECK(e->oriented && e->from == f.id)
      << "rollback of T" << f.id << "->T" << t.id << " out of order";
  e->oriented = false;
  e->from = kInvalidTxn;
  // MarkOriented pushed onto the backs; LIFO rollback pops the backs, which
  // restores the vectors byte-identically. A mismatch means the caller
  // mutated the graph between speculation and rollback — fail loudly.
  WTPG_CHECK(!f.out.empty() && f.out.back() == to)
      << "journal rollback interleaved with other mutations";
  f.out.pop_back();
  WTPG_CHECK(!t.in.empty() && t.in.back() == from)
      << "journal rollback interleaved with other mutations";
  t.in.pop_back();
  t.in_w.pop_back();
}

uint64_t Wtpg::MarkReachable(const int32_t* starts, size_t count, bool reverse,
                             std::vector<int32_t>* out) const {
  const uint64_t epoch = ++epoch_;
  if (out != nullptr) out->clear();
  dfs_stack_.clear();
  const auto visit = [&](int32_t slot) {
    const Node& node = slots_[static_cast<size_t>(slot)];
    uint64_t& mark = reverse ? node.mark_rev : node.mark_fwd;
    if (mark == epoch) return;
    mark = epoch;
    dfs_stack_.push_back(slot);
    if (out != nullptr) out->push_back(slot);
  };
  for (size_t i = 0; i < count; ++i) visit(starts[i]);
  while (!dfs_stack_.empty()) {
    const int32_t cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    const Node& node = slots_[static_cast<size_t>(cur)];
    const std::vector<int32_t>& adj = reverse ? node.in : node.out;
    for (int32_t nb : adj) visit(nb);
  }
  return epoch;
}

bool Wtpg::HasPath(TxnId from, TxnId to) const {
  if (from == to) return true;
  const int32_t sf = SlotOf(from);
  const int32_t st = SlotOf(to);
  const uint64_t epoch = MarkReachable(&sf, 1, /*reverse=*/false, nullptr);
  return slots_[static_cast<size_t>(st)].mark_fwd == epoch;
}

bool Wtpg::OrientBatchImpl(TxnId from, const std::vector<TxnId>& targets,
                           OrientJournal* journal) {
  if (targets.empty()) return true;
  const int32_t sf = SlotOf(from);
  // Every new edge leaves `from`, so any cycle the batch could close must
  // run over a pre-existing path back into `from`: one ancestor probe
  // checks all targets. Validation and marking run in one merged pass:
  // marking from -> u cannot change ancestors(from) (a path into `from`
  // through a new edge would first have to reach `from`), so later targets
  // test against marks that are still exact. On failure the graph is left
  // partially oriented — journal callers roll back, and the no-journal
  // callers treat failure as fatal (see the header contract).
  const uint64_t a_epoch = MarkReachable(&sf, 1, /*reverse=*/true, nullptr);
  bool any_new = false;
  new_targets_scratch_.clear();
  for (TxnId u : targets) {
    if (u == from) return false;
    const int32_t su = SlotOf(u);
    if (slots_[static_cast<size_t>(su)].mark_rev == a_epoch) {
      return false;  // u ~> from (covers an edge oriented u -> from).
    }
    const Edge* e = FindEdgeBySlots(sf, su);
    WTPG_CHECK(e != nullptr) << "OrientBatch: no edge T" << from << "-T" << u;
    if (e->oriented) continue;  // u ~> from excluded above, so from -> u.
    MarkOriented(sf, su, journal);
    any_new = true;
    new_targets_scratch_.push_back(su);
  }
  if (!any_new) return true;
  // Forced transitive closure over D' = nodes reachable from the *newly*
  // oriented targets. Walking the full descendant set D = descendants(from)
  // would also be correct, but D' suffices: a newly forced edge x->y needs
  // a connecting path x ~> from ~> y that did not exist before the batch,
  // i.e. one through a new direct edge from -> u, so y is reachable from
  // some new target u (y ∈ D'). For y ∈ D \ D' the path
  // x ~> from ~> y predates the batch and the pre-batch closure invariant
  // already oriented (x, y). Forcings cannot cascade (marking x->y with
  // x ∈ A = ancestors(from) adds no reachability beyond x ~> from ~> y),
  // and a forced edge cannot conflict (its reverse would need a node in
  // A ∩ D', a pre-existing cycle).
  MarkReachable(new_targets_scratch_.data(), new_targets_scratch_.size(),
                /*reverse=*/false, &visited_scratch_);
  for (const int32_t y : visited_scratch_) {
    const Node& ny = slots_[static_cast<size_t>(y)];
    // ny.neighbors cannot grow during the closure marks, but iterate by
    // index for clarity that MarkOriented only touches out/in lists.
    for (size_t i = 0; i < ny.neighbors.size(); ++i) {
      const int32_t x = ny.neighbors[i];
      if (slots_[static_cast<size_t>(x)].mark_rev != a_epoch) continue;
      const Edge* e = FindEdgeBySlots(x, y);
      if (e->oriented) continue;
      MarkOriented(x, y, journal);
    }
  }
  return true;
}

bool Wtpg::OrientBatch(TxnId from, const std::vector<TxnId>& targets,
                       OrientJournal* journal) {
  WTPG_CHECK(journal != nullptr);
  const size_t mark = journal->records_.size();
  if (OrientBatchImpl(from, targets, journal)) return true;
  RollbackToMark(journal, mark);
  return false;
}

void Wtpg::RollbackToMark(OrientJournal* journal, size_t mark) {
  auto& records = journal->records_;
  while (records.size() > mark) {
    const OrientJournal::Record r = records.back();
    records.pop_back();
    UnmarkOriented(SlotOf(r.from), SlotOf(r.to));
  }
}

void Wtpg::Rollback(OrientJournal* journal) {
  WTPG_CHECK(journal != nullptr);
  RollbackToMark(journal, 0);
}

bool Wtpg::OrientBatchNoRollback(TxnId from,
                                 const std::vector<TxnId>& targets) {
  return OrientBatchImpl(from, targets, /*journal=*/nullptr);
}

bool Wtpg::TryOrient(TxnId from, TxnId to) {
  const Edge* e = FindEdge(from, to);
  WTPG_CHECK(e != nullptr) << "TryOrient on nonexistent edge T" << from
                           << "->T" << to;
  if (e->oriented) return e->from == from;
  OrientJournal journal;
  return OrientBatch(from, {to}, &journal);  // Keep on success.
}

double Wtpg::CriticalPath() const {
  // Two fresh stamps per call: done - 1 marks a node in progress, done a
  // node whose distance is final.
  epoch_ += 2;
  const uint64_t done = epoch_;
  double critical = 0.0;
  for (const Node& node : slots_) {
    if (node.id == kInvalidTxn) continue;
    critical = std::max(critical, EvalDist(node, done));
  }
  return critical;
}

// Longest-path DP over the oriented sub-DAG:
//   dist(v) = max(remaining(v), max over oriented u->v of dist(u) + w(u,v))
// Meeting a node still in progress means a cycle: fail loudly, not
// forever. The in-weights live in the parallel in_w list, so the DP
// touches no edge table.
double Wtpg::EvalDist(const Node& node, uint64_t done) const {
  if (node.dist_mark == done) return node.dist;
  WTPG_CHECK(node.dist_mark != done - 1) << "cycle in oriented WTPG";
  node.dist_mark = done - 1;
  double best = node.remaining;
  for (size_t i = 0; i < node.in.size(); ++i) {
    const Node& pred = slots_[static_cast<size_t>(node.in[i])];
    best = std::max(best, EvalDist(pred, done) + node.in_w[i]);
  }
  node.dist = best;
  node.dist_mark = done;
  return best;
}

std::vector<TxnId> Wtpg::Nodes() const {
  std::vector<TxnId> result;
  result.reserve(slot_of_.size());
  for (const Node& node : slots_) {
    if (node.id != kInvalidTxn) result.push_back(node.id);
  }
  std::sort(result.begin(), result.end());  // Slot order is not id order.
  return result;
}

std::vector<TxnId> Wtpg::Neighbors(TxnId id) const {
  const Node& node = slots_[static_cast<size_t>(SlotOf(id))];
  std::vector<TxnId> result;
  result.reserve(node.neighbors.size());
  for (int32_t nb : node.neighbors) {
    result.push_back(slots_[static_cast<size_t>(nb)].id);
  }
  return result;
}

std::vector<TxnId> Wtpg::OutNeighbors(TxnId id) const {
  const Node& node = slots_[static_cast<size_t>(SlotOf(id))];
  std::vector<TxnId> result;
  result.reserve(node.out.size());
  for (int32_t nb : node.out) {
    result.push_back(slots_[static_cast<size_t>(nb)].id);
  }
  return result;
}

std::vector<TxnId> Wtpg::InNeighbors(TxnId id) const {
  const Node& node = slots_[static_cast<size_t>(SlotOf(id))];
  std::vector<TxnId> result;
  result.reserve(node.in.size());
  for (int32_t nb : node.in) {
    result.push_back(slots_[static_cast<size_t>(nb)].id);
  }
  return result;
}

std::vector<std::pair<TxnId, TxnId>> Wtpg::UnorientedEdges() const {
  std::vector<std::pair<TxnId, TxnId>> result;
  edges_.ForEach([&](uint64_t, const Edge& edge) {
    if (!edge.oriented) result.emplace_back(edge.a, edge.b);
  });
  // The table iterates in hash order; keep the historical sorted contract.
  std::sort(result.begin(), result.end());
  return result;
}

size_t Wtpg::LongestEdgeProbe() const { return edges_.LongestProbe(); }

bool Wtpg::CheckInvariants() const {
  // Slot map <-> slab bijection and free-list integrity.
  size_t live = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].id == kInvalidTxn) continue;
    ++live;
    if (SlotOrNull(slots_[s].id) != static_cast<int32_t>(s)) return false;
  }
  if (live != slot_of_.size()) return false;
  size_t free_count = 0;
  for (int32_t f = free_head_; f >= 0;
       f = slots_[static_cast<size_t>(f)].next_free) {
    if (static_cast<size_t>(f) >= slots_.size()) return false;
    if (slots_[static_cast<size_t>(f)].id != kInvalidTxn) return false;
    if (++free_count > slots_.size()) return false;  // Cycle in free list.
  }
  if (live + free_count != slots_.size()) return false;
  // Edge table: keys match live endpoints; normalization holds.
  std::vector<std::pair<uint64_t, Edge>> edges;
  edges_.ForEach([&](uint64_t key, const Edge& edge) {
    edges.emplace_back(key, edge);
  });
  for (const auto& [key, edge] : edges) {
    if (!HasNode(edge.a) || !HasNode(edge.b)) return false;
    if (edge.a >= edge.b) return false;
    if (key != PackSlots(SlotOf(edge.a), SlotOf(edge.b))) return false;
    if (edge.oriented && edge.from != edge.a && edge.from != edge.b) {
      return false;
    }
  }
  // Adjacency lists consistent with edge states; in_w parallel to in and
  // carrying the oriented direction's weight.
  for (const Node& node : slots_) {
    if (node.id == kInvalidTxn) continue;
    const TxnId id = node.id;
    for (int32_t nb : node.out) {
      if (!IsOriented(id, slots_[static_cast<size_t>(nb)].id)) return false;
    }
    if (node.in_w.size() != node.in.size()) return false;
    for (size_t i = 0; i < node.in.size(); ++i) {
      const TxnId nb = slots_[static_cast<size_t>(node.in[i])].id;
      if (!IsOriented(nb, id)) return false;
      const Edge* e = FindEdge(nb, id);
      const double w = (e->from == e->a) ? e->weight_ab : e->weight_ba;
      if (node.in_w[i] != w) return false;
    }
    size_t oriented_count = 0;
    for (int32_t nb : node.neighbors) {
      const Edge* e = FindEdgeBySlots(SlotOf(id), nb);
      if (e == nullptr) return false;
      if (e->oriented) ++oriented_count;
    }
    if (oriented_count != node.out.size() + node.in.size()) return false;
  }
  // Oriented subgraph must be acyclic.
  for (const auto& [key, edge] : edges) {
    if (!edge.oriented) continue;
    const TxnId to = (edge.from == edge.a) ? edge.b : edge.a;
    if (HasPath(to, edge.from)) return false;
  }
  // Closure fully applied: no unoriented edge with a connecting path.
  for (const auto& [key, edge] : edges) {
    if (edge.oriented) continue;
    if (HasPath(edge.a, edge.b) || HasPath(edge.b, edge.a)) return false;
  }
  return true;
}

double EvaluateGrant(Wtpg& g, TxnId grantee,
                     const std::vector<TxnId>& orient_to) {
  Wtpg::OrientJournal journal;
  if (!g.OrientBatch(grantee, orient_to, &journal)) return kInfiniteCost;
  const double critical = g.CriticalPath();
  g.Rollback(&journal);
  return critical;
}

}  // namespace wtpgsched
