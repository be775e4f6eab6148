#include "wtpg/chain.h"

#include <algorithm>
#include <array>

#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

// Direction of a chain segment.
enum Direction { kForward = 0, kBackward = 1 };

// Per-edge constraint from existing orientations: -1 free, else a Direction.
int EdgeConstraint(const Wtpg& g, TxnId a, TxnId b) {
  const Wtpg::Edge* e = g.FindEdge(a, b);
  WTPG_CHECK(e != nullptr);
  if (!e->oriented) return -1;
  return e->from == a ? kForward : kBackward;
}

}  // namespace

bool IsChainForm(const Wtpg& g) {
  // Union of simple paths <=> every degree <= 2 and each connected
  // component has |E| = |V| - 1 (tree) — with degree <= 2 a tree is a path.
  // Walks the slots with a fresh forward epoch and the shared DFS stack, so
  // the test allocates nothing once the stack is warm.
  const uint64_t epoch = ++g.epoch_;
  std::vector<int32_t>& stack = g.dfs_stack_;
  for (size_t s = 0; s < g.slots_.size(); ++s) {
    const Wtpg::Node& root = g.slots_[s];
    if (root.id == kInvalidTxn || root.mark_fwd == epoch) continue;
    root.mark_fwd = epoch;
    stack.assign(1, static_cast<int32_t>(s));
    size_t nodes = 0;
    size_t endpoint_count = 0;
    while (!stack.empty()) {
      const Wtpg::Node& cur = g.slots_[static_cast<size_t>(stack.back())];
      stack.pop_back();
      if (cur.neighbors.size() > 2) return false;
      ++nodes;
      endpoint_count += cur.neighbors.size();
      for (const int32_t nb : cur.neighbors) {
        const Wtpg::Node& next = g.slots_[static_cast<size_t>(nb)];
        if (next.mark_fwd == epoch) continue;
        next.mark_fwd = epoch;
        stack.push_back(nb);
      }
    }
    if (endpoint_count / 2 != nodes - 1) return false;  // Cycle.
  }
  return true;
}

bool CanExtendChain(const Wtpg& g, const std::vector<TxnId>& conflict_set) {
  WTPG_CHECK(IsChainForm(g));
  if (conflict_set.size() > 2) return false;
  for (TxnId id : conflict_set) {
    WTPG_CHECK(g.HasNode(id));
    if (g.Neighbors(id).size() > 1) return false;  // Not a path endpoint.
  }
  if (conflict_set.size() == 2) {
    // Joining two endpoints of the same path through the new node would
    // close a cycle.
    const std::vector<TxnId> chain = ChainContaining(g, conflict_set[0]);
    for (TxnId id : chain) {
      if (id == conflict_set[1]) return false;
    }
  }
  return true;
}

std::vector<TxnId> ChainContaining(const Wtpg& g, TxnId id) {
  WTPG_CHECK(g.HasNode(id));
  // Walk to one end.
  TxnId end = id;
  TxnId prev = kInvalidTxn;
  while (true) {
    TxnId next = kInvalidTxn;
    for (TxnId nb : g.Neighbors(end)) {
      if (nb != prev) {
        next = nb;
        break;
      }
    }
    if (next == kInvalidTxn) break;
    prev = end;
    end = next;
  }
  // Traverse from the end.
  std::vector<TxnId> chain = {end};
  prev = kInvalidTxn;
  TxnId cur = end;
  while (true) {
    TxnId next = kInvalidTxn;
    for (TxnId nb : g.Neighbors(cur)) {
      if (nb != prev) {
        next = nb;
        break;
      }
    }
    if (next == kInvalidTxn) break;
    chain.push_back(next);
    prev = cur;
    cur = next;
  }
  return chain;
}

bool ChainPlan::Orients(TxnId a, TxnId b) const {
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    if (nodes[i] == a && nodes[i + 1] == b) return forward[i];
    if (nodes[i] == b && nodes[i + 1] == a) return !forward[i];
  }
  WTPG_CHECK(false) << "ChainPlan::Orients: T" << a << ",T" << b
                    << " not adjacent in chain";
  return false;
}

StatusOr<ChainPlan> OptimizeChain(const Wtpg& g,
                                  const std::vector<TxnId>& chain) {
  const int m = static_cast<int>(chain.size());
  WTPG_CHECK_GE(m, 1);
  ChainPlan plan;
  plan.nodes = chain;

  std::vector<double> w0(static_cast<size_t>(m));
  double max_w0 = 0.0;
  for (int i = 0; i < m; ++i) {
    w0[static_cast<size_t>(i)] = g.remaining(chain[static_cast<size_t>(i)]);
    max_w0 = std::max(max_w0, w0[static_cast<size_t>(i)]);
  }
  if (m == 1) {
    plan.critical_path = max_w0;
    return plan;
  }

  const int ne = m - 1;  // Number of chain edges.
  std::vector<double> wf(static_cast<size_t>(ne));
  std::vector<double> wb(static_cast<size_t>(ne));
  std::vector<int> fixed(static_cast<size_t>(ne));
  for (int i = 0; i < ne; ++i) {
    const TxnId a = chain[static_cast<size_t>(i)];
    const TxnId b = chain[static_cast<size_t>(i) + 1];
    const Wtpg::Edge* e = g.FindEdge(a, b);
    WTPG_CHECK(e != nullptr) << "chain nodes not adjacent in WTPG";
    wf[static_cast<size_t>(i)] = (e->a == a) ? e->weight_ab : e->weight_ba;
    wb[static_cast<size_t>(i)] = (e->a == a) ? e->weight_ba : e->weight_ab;
    fixed[static_cast<size_t>(i)] = EdgeConstraint(g, a, b);
  }

  // Prefix sums: pf[k] = sum of wf[0..k), pb[k] = sum of wb[0..k).
  std::vector<double> pf(static_cast<size_t>(ne) + 1, 0.0);
  std::vector<double> pb(static_cast<size_t>(ne) + 1, 0.0);
  for (int i = 0; i < ne; ++i) {
    pf[static_cast<size_t>(i) + 1] = pf[static_cast<size_t>(i)] + wf[static_cast<size_t>(i)];
    pb[static_cast<size_t>(i) + 1] = pb[static_cast<size_t>(i)] + wb[static_cast<size_t>(i)];
  }
  // Segment values (edges [i..j] all one direction):
  //   forward : longest run entering at some node a in [i, j+1] and running
  //             right to node j+1: max_a (w0[a] - pf[a]) + pf[j+1]
  //   backward: entering at some b in [i, j+1], running left to node i:
  //             max_b (w0[b] + pb[b]) - pb[i]
  auto seg_forward = [&](int i, int j, double max_w0_minus_pf) {
    (void)i;
    return max_w0_minus_pf + pf[static_cast<size_t>(j) + 1];
  };
  auto seg_backward = [&](int i, int j, double max_w0_plus_pb) {
    (void)j;
    return max_w0_plus_pb - pb[static_cast<size_t>(i)];
  };

  constexpr double kInf = kInfiniteCost;
  // dp[j][d]: minimal achievable maximum segment value over edges [0..j],
  // where the last (maximal) segment ends at edge j with direction d.
  std::vector<std::array<double, 2>> dp(static_cast<size_t>(ne),
                                        {kInf, kInf});
  std::vector<std::array<int, 2>> parent(static_cast<size_t>(ne), {-2, -2});

  for (int j = 0; j < ne; ++j) {
    // Scan segment starts i from j down to 0, maintaining the running
    // maxima needed by the segment-value formulas and feasibility.
    double max_w0_minus_pf =
        std::max(w0[static_cast<size_t>(j) + 1] - pf[static_cast<size_t>(j) + 1],
                 w0[static_cast<size_t>(j)] - pf[static_cast<size_t>(j)]);
    double max_w0_plus_pb =
        std::max(w0[static_cast<size_t>(j) + 1] + pb[static_cast<size_t>(j) + 1],
                 w0[static_cast<size_t>(j)] + pb[static_cast<size_t>(j)]);
    bool forward_ok = fixed[static_cast<size_t>(j)] != kBackward;
    bool backward_ok = fixed[static_cast<size_t>(j)] != kForward;
    for (int i = j; i >= 0; --i) {
      if (i < j) {
        // Extend the segment leftward over edge i.
        if (fixed[static_cast<size_t>(i)] == kBackward) forward_ok = false;
        if (fixed[static_cast<size_t>(i)] == kForward) backward_ok = false;
        max_w0_minus_pf = std::max(
            max_w0_minus_pf, w0[static_cast<size_t>(i)] - pf[static_cast<size_t>(i)]);
        max_w0_plus_pb = std::max(
            max_w0_plus_pb, w0[static_cast<size_t>(i)] + pb[static_cast<size_t>(i)]);
      }
      for (int d = 0; d < 2; ++d) {
        if ((d == kForward && !forward_ok) || (d == kBackward && !backward_ok)) {
          continue;
        }
        const double seg_value =
            d == kForward ? seg_forward(i, j, max_w0_minus_pf)
                          : seg_backward(i, j, max_w0_plus_pb);
        // Strict alternation with the previous maximal segment.
        const double prev =
            i == 0 ? 0.0 : dp[static_cast<size_t>(i) - 1][1 - d];
        if (prev == kInf) continue;
        const double candidate = std::max(seg_value, prev);
        if (candidate < dp[static_cast<size_t>(j)][static_cast<size_t>(d)]) {
          dp[static_cast<size_t>(j)][static_cast<size_t>(d)] = candidate;
          parent[static_cast<size_t>(j)][static_cast<size_t>(d)] = i;
        }
      }
    }
  }

  int best_dir = -1;
  double best = kInf;
  for (int d = 0; d < 2; ++d) {
    if (dp[static_cast<size_t>(ne) - 1][static_cast<size_t>(d)] < best) {
      best = dp[static_cast<size_t>(ne) - 1][static_cast<size_t>(d)];
      best_dir = d;
    }
  }
  if (best_dir == -1) {
    return Status::FailedPrecondition(
        "chain has contradictory fixed orientations");
  }

  // Reconstruct segment directions.
  plan.forward.assign(static_cast<size_t>(ne), true);
  int j = ne - 1;
  int d = best_dir;
  while (j >= 0) {
    const int i = parent[static_cast<size_t>(j)][static_cast<size_t>(d)];
    WTPG_CHECK_GE(i, 0);
    for (int k = i; k <= j; ++k) {
      plan.forward[static_cast<size_t>(k)] = (d == kForward);
    }
    j = i - 1;
    d = 1 - d;
  }
  plan.critical_path = std::max(best, max_w0);
  return plan;
}

StatusOr<ChainPlan> OptimizeChainOf(const Wtpg& g, TxnId id) {
  return OptimizeChain(g, ChainContaining(g, id));
}

}  // namespace wtpgsched
