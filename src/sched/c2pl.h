#ifndef WTPG_SCHED_SCHED_C2PL_H_
#define WTPG_SCHED_SCHED_C2PL_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sched/pending_index.h"
#include "sched/scheduler.h"
#include "util/open_table.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {

// Cautious Two-Phase Locking (paper Section 4.2, ref [12]): strict 2PL with
// incremental lock requests, made deadlock-free by prediction — it grants a
// request only if it is not blocked and the orders it determines keep the
// (unweighted) precedence graph of declared conflicts acyclic; otherwise
// the request is delayed. No deadlocks, no rollbacks, but chains of
// blocking remain possible (the paper's main criticism).
//
// The graph is derived, not stored (docs/ALGORITHMS.md §4): X precedes Y
// while X holds a file on which Y has a conflicting declaration pending,
// which the lock table and the pending index answer. The only orders kept
// are durable ones: when a transaction leaves, each conflicting pair of an
// ancestor and a descendant of it stays ordered until either end leaves.
//
// The optional MPL limit turns this into C2PL+M: admission is refused while
// `mpl` transactions are active. The experiment harness tunes mpl per
// configuration and reports the best ("the best C2PL to control
// multi-programming level").
class C2plScheduler : public Scheduler {
 public:
  // ddtime: CPU cost of the deadlock-prediction test per lock decision.
  explicit C2plScheduler(SimTime ddtime,
                         int mpl = std::numeric_limits<int>::max());

  std::string name() const override;

  SimTime LockDecisionCost(const Transaction& txn, int step) const override;

  int mpl() const { return mpl_; }
  uint64_t predicted_deadlocks() const { return predicted_deadlocks_; }

  SchedulerTraits traits() const override {
    return {.retry_delayed_on_grant = false, .pure_lock_block = true};
  }

  std::vector<NamedCounter> Counters() const override;
  void ExportDecisionCounters(CounterRegistry* registry) const override;

  // The active transactions ordered before (Ancestors) or after
  // (Descendants) the active `txn`, in discovery order; clears *out.
  void Ancestors(TxnId txn, std::vector<TxnId>* out) const;
  void Descendants(TxnId txn, std::vector<TxnId>* out) const;

  // The durable orders currently kept, as (from, to) pairs, sorted.
  std::vector<std::pair<TxnId, TxnId>> durable_orders() const;
  const PendingIndex& pending() const { return pending_; }

  // The precedence graph as a Wtpg (wtpg_sim --dot-out): each active
  // transaction with its remaining declared cost, and one zero-weight
  // oriented edge per derived or durable order.
  Wtpg PrecedenceSnapshot() const;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  void AfterAdmit(Transaction& txn) override;

  Decision DecideLock(Transaction& txn, int step) override;
  void OnLockRecorded(Transaction& txn, FileId file) override;

  void AfterCommit(Transaction& txn) override { Forget(txn); }
  void AfterAbort(Transaction& txn) override { Forget(txn); }

 private:
  // A transaction's durable orders: x -> this for x in `in`, this -> y for
  // y in `out`.
  struct DurableOrders {
    std::vector<TxnId> in;
    std::vector<TxnId> out;
  };

  // Calls visit(v) for every direct predecessor (reverse) or successor of
  // txn, derived orders first; v may repeat.
  template <typename Visit>
  void ForEachNeighbor(const Transaction& txn, bool reverse,
                       Visit&& visit) const;
  // The descendants of `start` (ancestors when `reverse`).
  void Reach(const Transaction& start, bool reverse,
             std::vector<TxnId>* out) const;

  // Adds the leaver's durable orders, then drops its own orders, walk mark
  // and pending entries. txn has left active_ but still holds its locks.
  void Forget(const Transaction& txn);
  void AddDurable(TxnId from, TxnId to);

  SimTime ddtime_;
  int mpl_;
  uint64_t predicted_deadlocks_ = 0;
  // Deadlock-prediction probes (DecideLock calls past the lock test).
  uint64_t wtpg_evals_ = 0;
  PendingIndex pending_;
  // Keyed by TxnId; only transactions with durable orders have an entry.
  OpenTable<uint64_t, DurableOrders> durable_;

  // Walk state: a visited transaction's mark holds the walk's epoch, so no
  // visited set is cleared or allocated per walk. Mutable: walks are const.
  mutable OpenTable<uint64_t, uint64_t> marks_;
  mutable uint64_t epoch_ = 0;
  mutable std::vector<const Transaction*> stack_;
  std::vector<TxnId> ancestors_;    // DecideLock's and Forget's ancestors.
  std::vector<TxnId> descendants_;  // Forget's descendants.
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_C2PL_H_
