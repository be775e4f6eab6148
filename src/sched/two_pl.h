#ifndef WTPG_SCHED_SCHED_TWO_PL_H_
#define WTPG_SCHED_SCHED_TWO_PL_H_

#include <string>
#include <unordered_map>

#include "sched/scheduler.h"

namespace wtpgsched {

// Traditional strict two-phase locking with deadlock detection — the
// protocol the paper's introduction dismisses for batch workloads ("the
// traditional two-phase locking protocol does not work well in this case
// because of 'chains of blocking'"). Included as a baseline: requests that
// conflict with a held lock block FIFO; a block that closes a wait-for
// cycle aborts the requester, which restarts from scratch.
//
// Unlike C2PL it needs no access declarations — this is what declaring
// buys the cautious schedulers.
class TwoPlScheduler : public Scheduler {
 public:
  // ddtime: CPU cost of the deadlock-detection search per blocked request.
  explicit TwoPlScheduler(SimTime ddtime);

  std::string name() const override { return "2PL"; }

  SimTime LockDecisionCost(const Transaction& txn, int step) const override;

  uint64_t deadlock_aborts() const { return deadlock_aborts_; }

  std::vector<NamedCounter> Counters() const override {
    return {{"twopl.deadlock_aborts", &deadlock_aborts_}};
  }

 protected:
  Decision DecideStartup(Transaction& txn) override;
  Decision DecideLock(Transaction& txn, int step) override;
  void AfterGrant(Transaction& txn, int step) override;
  void AfterCommit(Transaction& txn) override;
  void AfterAbort(Transaction& txn) override;

 private:
  // True if making `txn` wait for the conflicting holders of `file` closes
  // a cycle in the waits-for graph (txn -> holders -> what they wait on).
  bool WouldDeadlock(TxnId txn, FileId file) const;

  SimTime ddtime_;
  // File each blocked transaction currently waits on.
  std::unordered_map<TxnId, FileId> waiting_on_;
  uint64_t deadlock_aborts_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_TWO_PL_H_
