#ifndef WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_
#define WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/types.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {

// A deliberately naive WTPG with the production Wtpg's semantics, the
// oracle of the differential suites. It shares no code with wtpg.cc and
// keeps no caches: edges sit in a std::map keyed by the normalized id pair,
// reachability is a plain BFS over that map, forced closure is a fixpoint
// loop, every orientation works on a clone that is kept only on success,
// and CriticalPath is a fresh longest-path DP per call. Sparse precedence
// mode skips the closure and materializes conflict edges on demand, as in
// production.
class ReferenceWtpg {
 public:
  // Must be called on an empty graph.
  void SetSparsePrecedence() { sparse_ = true; }

  void AddNode(TxnId id, double remaining);
  void AddConflictEdge(TxnId a, TxnId b, double weight_ab, double weight_ba);
  void RemoveNode(TxnId id);
  void SetRemaining(TxnId id, double remaining);

  // Wtpg::TryOrient. The pair's edge must exist; false leaves the graph
  // unchanged.
  bool TryOrient(TxnId from, TxnId to);
  // The free function CanOrient: false when the pair has no edge.
  bool CanOrient(TxnId from, TxnId to) const;
  // Wtpg::OrientBatch, kept on success when `keep`, discarded otherwise
  // (a speculation that the caller rolls back). Either way, and on
  // failure, sparse mode keeps the on-demand edges of the targets checked
  // before the failing one, unoriented — exactly what production leaves.
  bool OrientBatch(TxnId from, const std::vector<TxnId>& targets, bool keep);
  // Wtpg::ForceOrientSparse: a direct edge, no cycle probe, no closure.
  void ForceOrientSparse(TxnId from, TxnId to);

  bool WouldCycle(TxnId from, const std::vector<TxnId>& targets) const;
  // The free function EvaluateGrant: the critical path with the grant's
  // orientations applied, or kInfiniteCost if they close a cycle.
  double EvaluateGrant(TxnId grantee, const std::vector<TxnId>& targets) const;

  bool HasPath(TxnId from, TxnId to) const;
  double CriticalPath() const;

  // Empty when `production` has the same observable state — node set and
  // remaining weights; edge set with weights, orientation and direction;
  // neighbor, out and in sets; unoriented edge list — else the first
  // difference found. Adjacency order is not modelled; see RollbackDiff.
  std::string Diff(const Wtpg& production) const;

 private:
  struct Edge {
    double weight_ab = 0.0;  // w(a -> b) for the key (a, b), a < b.
    double weight_ba = 0.0;  // w(b -> a).
    bool oriented = false;
    TxnId from = kInvalidTxn;  // Valid when oriented: a or b.
  };
  using Key = std::pair<TxnId, TxnId>;  // (min id, max id).
  using Adjacency = std::map<TxnId, std::vector<TxnId>>;

  static Key KeyOf(TxnId a, TxnId b);
  // Oriented out-lists of every node, rebuilt from the edge map.
  Adjacency OutLists() const;
  // Orients every unoriented edge whose endpoints a directed path already
  // connects until none is left; false if a cycle appears.
  bool CloseFixpoint();

  std::map<TxnId, double> remaining_;
  std::map<Key, Edge> edges_;
  bool sparse_ = false;
};

// Empty when `after` shows exactly the state of `before`, adjacency-list
// order included — the check that a speculation rolled back byte for byte.
// With neighbors_may_grow (sparse mode) each neighbor list of `before`
// need only be a prefix of `after`'s: the on-demand edges a speculation
// materializes stay behind, unoriented, at the back of the lists.
std::string RollbackDiff(const Wtpg& before, const Wtpg& after,
                         bool neighbors_may_grow = false);

// Would g.TryOrient(from, to) succeed? False when the pair has no edge.
// Speculates with OrientBatch and rolls back, so `g` ends unchanged.
bool CanOrient(Wtpg& g, TxnId from, TxnId to);

// The oracle of OptimizeChain: the least critical path over every feasible
// orientation of the chain's unoriented edges, each tried with TryOrient
// on a copy of `g`. Exponential; chains of at most 20 free edges.
double BruteForceOptimalCriticalPath(const Wtpg& g,
                                     const std::vector<TxnId>& chain);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_
