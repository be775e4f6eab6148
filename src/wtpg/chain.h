#ifndef WTPG_SCHED_WTPG_CHAIN_H_
#define WTPG_SCHED_WTPG_CHAIN_H_

#include <vector>

#include "model/types.h"
#include "util/status.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {

// Chain-form support for the Globally-Optimized WTPG scheduler (GOW,
// paper Section 3.2). A WTPG is in *chain form* when every transaction
// conflicts only with its adjacent nodes — i.e. the undirected
// conflicts-with graph is a disjoint union of simple paths. GOW admits a
// new transaction only if the graph stays chain-form, which is what makes
// the globally optimal serializable order computable in O(N^2) instead of
// NP-hard.

// True when the conflict graph of `g` is a disjoint union of simple paths
// (every degree <= 2, no cycles).
bool IsChainForm(const Wtpg& g);

// Would the graph remain chain-form after adding a node that conflicts with
// exactly `conflict_set` (existing nodes)? Requires IsChainForm(g). True iff
// each member has degree <= 1, |conflict_set| <= 2, and joining them through
// the new node closes no cycle (two endpoints of the same path).
bool CanExtendChain(const Wtpg& g, const std::vector<TxnId>& conflict_set);

// The ordered node list of the path containing `id` (endpoints first/last).
// Requires chain form. A conflict-free node yields a singleton.
std::vector<TxnId> ChainContaining(const Wtpg& g, TxnId id);

// The globally-optimized serializable order for one chain: a direction for
// every chain edge, minimizing the critical path, respecting edges already
// oriented in `g`.
struct ChainPlan {
  // Chain nodes in path order.
  std::vector<TxnId> nodes;
  // forward[i] == true orients nodes[i] -> nodes[i+1]; size = nodes-1.
  std::vector<bool> forward;
  // Critical path of the chain under this plan:
  //   max over directed runs (remaining(entry) + sum of run edge weights),
  // at least max_v remaining(v).
  double critical_path = 0.0;

  // Direction this plan assigns to the edge between a and b (true: a -> b).
  // The pair must be adjacent in `nodes`.
  bool Orients(TxnId a, TxnId b) const;
};

// Computes the optimal plan by O(m^2) dynamic programming over alternating
// maximal directed segments. Fails (FailedPrecondition) only if existing
// orientations are contradictory, which the scheduler never allows.
StatusOr<ChainPlan> OptimizeChain(const Wtpg& g,
                                  const std::vector<TxnId>& chain);

// Convenience: optimal plan for the chain containing `id`.
StatusOr<ChainPlan> OptimizeChainOf(const Wtpg& g, TxnId id);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_WTPG_CHAIN_H_
