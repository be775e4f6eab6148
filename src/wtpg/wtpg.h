#ifndef WTPG_SCHED_WTPG_WTPG_H_
#define WTPG_SCHED_WTPG_WTPG_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "model/types.h"
#include "util/open_table.h"

namespace wtpgsched {

inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

// Weighted Transaction-Precedence Graph (paper Section 3.1).
//
// Nodes are active transactions plus two virtual transactions: T0 (precedes
// everything) and Tf (preceded by everything). A pair of transactions with
// declared conflicting accesses is connected by a *conflict edge* carrying a
// weight in each direction; once their serialization order is determined the
// edge becomes a *precedence edge* in one direction.
//
// Weights:
//   w(a->b) = b's declared I/O cost from its first step conflicting with a
//             through its last step ("if b is blocked by a and a commits
//             now, b still has w objects to access before it commits").
//             Static for the lifetime of the edge.
//   w(T0->a) = a's remaining declared cost; updated as the schedule
//              proceeds (the only weights that change).
//   w(a->Tf) = 0 (updated data flushed right after write-ahead logging).
//
// The critical path is the longest T0 -> Tf path over precedence edges.
//
// Orientation enforces *forced transitive closure*: after a->b is fixed, any
// conflict edge (x, y) connected by a directed path x ~> y must become
// x -> y (its reverse would create a cycle, i.e. a non-serializable order /
// deadlock). Orientation operations apply the closure and reject
// orientations that would create a cycle.
//
// Hypothetical evaluation (LOW's E(q), GOW's consistency test) speculates
// *in place*: OrientBatch records every edge it marks into an OrientJournal
// and Rollback undoes them in reverse order, restoring the graph exactly —
// including adjacency-vector order — so no decision ever copies the graph.
// The differential suites check every decision path against a naive
// clone-and-discard oracle (tests/wtpg/reference_wtpg.h).
//
// CriticalPath() runs the longest-path DP afresh on every call: LOW's
// graphs stay at a few dozen nodes, and no mutation has to keep distances
// from an earlier call valid. Reachability queries and the DP stamp epoch
// marks on the nodes instead of building per-call visited sets, and the DP
// reads precedence weights from a parallel in-weight list — the hot path
// performs no per-edge map lookups and no per-call allocations beyond
// reused scratch. The marks, distances, epoch counter and scratch are
// mutable: Wtpg is single-threaded by design (the simulator is
// sequential).
//
// Storage is dense: a TxnId maps (once, at the API boundary, through an
// OpenTable) to a slot in a contiguous node slab recycled through a free
// list, every internal walk — adjacency, reachability DFS, longest-path DP,
// orientation closure — runs on 32-bit slot indices over contiguous memory,
// and edges live in an OpenTable keyed by the packed 64-bit slot pair. The
// reachability paths keep dedicated oriented adjacency lists.
//
// GOW and LOW keep one each. C2PL reads only reachability, which it derives
// from its lock table and pending declarations (sched/c2pl.h); it builds a
// Wtpg only as a snapshot for inspection.
class Wtpg {
 public:
  struct Edge {
    TxnId a = kInvalidTxn;  // Normalized: a < b.
    TxnId b = kInvalidTxn;
    double weight_ab = 0.0;  // Used when oriented a -> b.
    double weight_ba = 0.0;  // Used when oriented b -> a.
    bool oriented = false;
    TxnId from = kInvalidTxn;  // Valid when oriented: a or b.
  };

  // Record of the orientations applied by one (or more) OrientBatch calls,
  // in application order. Opaque except for size inspection; pass it back
  // to Rollback to undo. The contract is strictly LIFO: between OrientBatch
  // and Rollback no other mutation of the graph may occur (rollback CHECKs
  // that each adjacency push is still the most recent one).
  class OrientJournal {
   public:
    bool empty() const { return records_.empty(); }
    size_t size() const { return records_.size(); }

   private:
    friend class Wtpg;
    struct Record {
      TxnId from;
      TxnId to;
    };
    std::vector<Record> records_;
  };

  Wtpg() = default;
  // Copyable by design (test harnesses and benches clone).
  Wtpg(const Wtpg&) = default;
  Wtpg& operator=(const Wtpg&) = default;

  // --- Structure ---

  // Adds a transaction node with its T0-edge weight (remaining declared
  // cost). The node must not already exist.
  void AddNode(TxnId id, double remaining);

  // Adds a conflict edge between existing nodes a and b.
  // weight_ab = w(a->b), weight_ba = w(b->a). The pair must not already
  // have an edge.
  void AddConflictEdge(TxnId a, TxnId b, double weight_ab, double weight_ba);

  // Removes a node (at commit) and all its edges.
  void RemoveNode(TxnId id);

  bool HasNode(TxnId id) const { return SlotOrNull(id) >= 0; }
  size_t num_nodes() const { return slot_of_.size(); }
  size_t num_edges() const { return edges_.size(); }

  // --- Weights ---

  void SetRemaining(TxnId id, double remaining);
  double remaining(TxnId id) const;

  // --- Edges & orientation ---

  // Returns the edge between a and b, or nullptr. The pointer is valid only
  // until the next mutation (the edge table may rehash or shift on
  // insert/erase).
  const Edge* FindEdge(TxnId a, TxnId b) const;

  // True if the pair's edge exists and is oriented from -> to.
  bool IsOriented(TxnId from, TxnId to) const;

  // Orients from -> to and applies forced transitive closure. Returns false
  // — leaving the graph unchanged — if the edge is already oriented the
  // other way or the closure would create a cycle. Orienting an edge that
  // is already from -> to is a no-op returning true.
  bool TryOrient(TxnId from, TxnId to);

  // Orients from -> to for every target, with closure, recording every edge
  // marked into *journal (appended). On failure (cycle) the orientations
  // recorded by *this call* are rolled back and the graph is unchanged.
  // On success the caller may keep the orientations, or undo the whole
  // journal with Rollback. Targets already oriented from -> to are fine; a
  // target oriented to -> from fails.
  bool OrientBatch(TxnId from, const std::vector<TxnId>& targets,
                   OrientJournal* journal);

  // Undoes every orientation in `journal` in reverse order and clears it.
  // Must be the next mutation after the OrientBatch calls that filled it.
  void Rollback(OrientJournal* journal);

  // Orients from -> to for every target, with closure, without rollback: on
  // failure (cycle) the graph may be left partially oriented. Only for
  // committed (non-speculative) orientation or when failure is a fatal bug.
  // Targets already oriented from -> to are fine; a target oriented
  // to -> from fails.
  bool OrientBatchNoRollback(TxnId from, const std::vector<TxnId>& targets);

  bool OrientNoRollback(TxnId from, TxnId to) {
    return OrientBatchNoRollback(from, {to});
  }

  // True if a directed path from -> ... -> to exists over oriented edges.
  bool HasPath(TxnId from, TxnId to) const;

  // --- Queries ---

  // Longest T0 -> Tf path over oriented edges:
  //   max over paths (v1, ..., vk): remaining(v1) + sum w(vi -> vi+1).
  // Conflict (unoriented) edges are ignored. Returns 0 for an empty graph.
  double CriticalPath() const;

  // All nodes (ascending id).
  std::vector<TxnId> Nodes() const;

  // Neighbors of `id` over *any* edge (conflict or precedence) — the
  // undirected "conflicts-with" adjacency used by the chain-form test.
  std::vector<TxnId> Neighbors(TxnId id) const;

  // Oriented adjacency of `id` in orientation order (id -> other and
  // other -> id respectively). Exposed for tests and state diffing.
  std::vector<TxnId> OutNeighbors(TxnId id) const;
  std::vector<TxnId> InNeighbors(TxnId id) const;

  // Unoriented conflict edges only, as (a, b) pairs with a < b, sorted.
  std::vector<std::pair<TxnId, TxnId>> UnorientedEdges() const;

  // The longest probe sequence in the edge table: the most buckets any
  // lookup visits to find an existing edge. A quality check on the hash.
  size_t LongestEdgeProbe() const;

  // Verifies internal invariants (edges reference live nodes; adjacency
  // lists consistent; oriented subgraph acyclic; closure fully applied;
  // slot map, free list and edge table self-consistent). For tests.
  bool CheckInvariants() const;

 private:
  // The chain-form test (wtpg/chain.h) walks the dense slots directly, with
  // the epoch marks and DFS scratch below: GOW CHECKs it on every
  // admission test.
  friend bool IsChainForm(const Wtpg& g);

  struct Node {
    TxnId id = kInvalidTxn;  // kInvalidTxn marks a free slot.
    double remaining = 0.0;
    std::vector<int32_t> neighbors;  // Any edge.
    std::vector<int32_t> out;        // Oriented this -> other.
    std::vector<int32_t> in;         // Oriented other -> this.
    std::vector<double> in_w;        // Parallel to `in`: w(other -> this).
    int32_t next_free = -1;          // Free-list link while the slot is free.
    // Scratch for the epoch-stamped reachability DFS (forward / reverse
    // slots so an ancestor set and a descendant set can coexist) and for
    // CriticalPath()'s longest-path distance, which is final in the call
    // whose stamp dist_mark holds. Mutable: queries are logically const.
    mutable uint64_t mark_fwd = 0;
    mutable uint64_t mark_rev = 0;
    mutable uint64_t dist_mark = 0;
    mutable double dist = 0.0;
  };

  // The edge table's key: the edge's two node slots, smaller slot in the
  // high half (slots are < 2^31, so no key is the table's empty marker).
  static uint64_t PackSlots(int32_t sa, int32_t sb) {
    const uint32_t lo = static_cast<uint32_t>(sa < sb ? sa : sb);
    const uint32_t hi = static_cast<uint32_t>(sa < sb ? sb : sa);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  // Slot of `id`; CHECK-fails when absent.
  int32_t SlotOf(TxnId id) const;
  // Slot of `id`, or -1 when absent.
  int32_t SlotOrNull(TxnId id) const {
    const int32_t* slot = slot_of_.Find(static_cast<uint64_t>(id));
    return slot == nullptr ? -1 : *slot;
  }

  const Edge* FindEdgeBySlots(int32_t sa, int32_t sb) const {
    return edges_.Find(PackSlots(sa, sb));
  }
  Edge* MutableEdgeBySlots(int32_t sa, int32_t sb) {
    return edges_.Find(PackSlots(sa, sb));
  }
  // Inserts the edge (a, b) between slots sa and sb, with a < b, and links
  // the two slots as neighbors; CHECK-fails on duplicates.
  Edge* InsertEdge(int32_t sa, int32_t sb, const Edge& edge);
  // Marks the edge oriented, updates adjacency, and (if non-null) records
  // the mark into *journal. The edge must be unoriented.
  void MarkOriented(int32_t from, int32_t to, OrientJournal* journal);

  // Exact inverse of MarkOriented. CHECKs that the adjacency pushes are
  // still the most recent ones (LIFO rollback contract), which also makes
  // the restoration byte-identical (vector order preserved).
  void UnmarkOriented(int32_t from, int32_t to);

  // Shared implementation of the batch orientation + forced closure. On
  // failure the graph is left partially oriented; all marks were appended
  // to *journal (when non-null) so the caller can undo them.
  bool OrientBatchImpl(TxnId from, const std::vector<TxnId>& targets,
                       OrientJournal* journal);

  // Undoes journal records down to (excluding) index `mark`, in reverse.
  void RollbackToMark(OrientJournal* journal, size_t mark);

  // Stamps a fresh epoch on every node reachable from the `count` start
  // slots over oriented edges (descendants; ancestors when `reverse`),
  // including the starts, and returns that epoch. Membership is
  // node.mark_fwd == epoch (mark_rev when `reverse`). When `out` is
  // non-null it is cleared and filled with the visited slots in discovery
  // order.
  uint64_t MarkReachable(const int32_t* starts, size_t count, bool reverse,
                         std::vector<int32_t>* out) const;

  // The longest-path distance of `node` in the CriticalPath() call whose
  // final stamp is `done` (done - 1 marks a node in progress).
  double EvalDist(const Node& node, uint64_t done) const;

  // Dense node slab: live slots hold id != kInvalidTxn, free slots chain
  // through next_free. Recycled slots keep their vectors' capacity, so a
  // warmed graph adds and removes nodes without touching the heap.
  std::vector<Node> slots_;
  int32_t free_head_ = -1;
  // The only id-keyed lookup (TxnId as uint64_t; kInvalidTxn is the
  // table's empty marker); every internal walk uses slots.
  OpenTable<uint64_t, int32_t> slot_of_;
  OpenTable<uint64_t, Edge> edges_;  // Keyed by PackSlots.
  // Epoch source for MarkReachable and CriticalPath.
  mutable uint64_t epoch_ = 0;
  // Reused scratch (never live across a public call): the DFS stack, the
  // visited list handed to MarkReachable, and the newly-oriented target
  // slots of one OrientBatchImpl call.
  mutable std::vector<int32_t> dfs_stack_;
  mutable std::vector<int32_t> visited_scratch_;
  mutable std::vector<int32_t> new_targets_scratch_;
};

// Hypothetical grant evaluation used by LOW's E(q) (paper Fig. 5) and by
// tests: orients grantee -> u for every u in `orient_to` (with closure) and
// returns the resulting critical path — or kInfiniteCost if any orientation
// would deadlock (cycle). Logically const: speculates on `g` via the
// orientation journal and rolls back before returning, so `g` is unchanged.
double EvaluateGrant(Wtpg& g, TxnId grantee,
                     const std::vector<TxnId>& orient_to);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_WTPG_WTPG_H_
