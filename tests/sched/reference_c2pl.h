#ifndef WTPG_SCHED_TESTS_SCHED_REFERENCE_C2PL_H_
#define WTPG_SCHED_TESTS_SCHED_REFERENCE_C2PL_H_

#include <limits>
#include <string>
#include <vector>

#include "sched/pending_index.h"
#include "sched/scheduler.h"
#include "wtpg/reference_wtpg.h"

namespace wtpgsched {

// C2PL with a stored precedence graph, the oracle of the production
// C2plScheduler, which derives its precedence from the lock table and the
// pending declarations. It keeps every order as an edge of a
// ReferenceWtpg in sparse mode: holder -> newcomer at admission, grantee ->
// every pending conflicter at a grant, and, before a removal, x -> y for
// every conflicting pair of an ancestor x and a descendant y of the leaver.
// A request is delayed when WouldCycle(requester, pending conflicters).
// The lock table and the pending index are the production ones; only the
// precedence is computed independently. Decisions, trace events and
// counters match C2plScheduler's, name included.
class ReferenceC2pl : public Scheduler {
 public:
  explicit ReferenceC2pl(SimTime ddtime,
                         int mpl = std::numeric_limits<int>::max());

  std::string name() const override;
  SimTime LockDecisionCost(const Transaction& txn, int step) const override;
  SchedulerTraits traits() const override {
    return {.retry_delayed_on_grant = false, .pure_lock_block = true};
  }

  std::vector<NamedCounter> Counters() const override;
  void ExportDecisionCounters(CounterRegistry* registry) const override;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  void AfterAdmit(Transaction& txn) override;
  Decision DecideLock(Transaction& txn, int step) override;
  void OnLockRecorded(Transaction& txn, FileId file) override;
  void AfterGrant(Transaction& txn, int step) override;
  void AfterCommit(Transaction& txn) override { Remove(txn); }
  void AfterAbort(Transaction& txn) override { Remove(txn); }

 private:
  void Remove(const Transaction& txn);

  SimTime ddtime_;
  int mpl_;
  uint64_t predicted_deadlocks_ = 0;
  uint64_t wtpg_evals_ = 0;
  PendingIndex pending_;
  ReferenceWtpg graph_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_SCHED_REFERENCE_C2PL_H_
