#ifndef WTPG_SCHED_SCHED_GOW_H_
#define WTPG_SCHED_SCHED_GOW_H_

#include <string>

#include "sched/scheduler.h"
#include "wtpg/chain.h"

namespace wtpgsched {

// Globally-Optimized WTPG scheduler (paper Section 3.2, Fig. 4; called the
// Chain-WTPG scheduler in ref [13]).
//
// Phase0 (admission): a new transaction is started only if the conflict
//   graph stays in chain form; otherwise the startup is rejected ("aborted")
//   and resubmitted later. Cost: toptime.
// Phase1: a request conflicting with a held lock is blocked.
// Phase2: compute the full serializable order W minimizing the WTPG
//   critical path — an O(N^2) DP over the chain containing the requester.
//   Cost: chaintime.
// Phase3: grant only if the precedence the grant determines is consistent
//   with W; otherwise delay.
// Phase4: orient the newly determined conflict edges.
class GowScheduler : public WtpgSchedulerBase {
 public:
  // toptime: chain-form test CPU cost; chaintime: optimization CPU cost.
  GowScheduler(SimTime toptime, SimTime chaintime);

  std::string name() const override { return "GOW"; }

  SimTime StartupDecisionCost() const override { return toptime_; }
  SimTime LockDecisionCost(const Transaction& txn, int step) const override;

  uint64_t chain_rejections() const { return chain_rejections_; }

  SchedulerTraits traits() const override {
    return {.pure_lock_block = true};
  }

  std::vector<NamedCounter> Counters() const override;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  void AfterAdmit(Transaction& txn) override;

  Decision DecideLock(Transaction& txn, int step) override;
  void AfterGrant(Transaction& txn, int step) override;

 private:
  SimTime toptime_;
  SimTime chaintime_;
  uint64_t chain_rejections_ = 0;
  std::vector<TxnId> targets_scratch2_;  // DecideLock target list.
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_GOW_H_
