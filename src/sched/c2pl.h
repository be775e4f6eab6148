#ifndef WTPG_SCHED_SCHED_C2PL_H_
#define WTPG_SCHED_SCHED_C2PL_H_

#include <limits>
#include <string>

#include "sched/scheduler.h"

namespace wtpgsched {

// Cautious Two-Phase Locking (paper Section 4.2, ref [12]): strict 2PL with
// incremental lock requests, made deadlock-free by prediction — it keeps an
// *unweighted* WTPG of declared conflicts and grants a request only if it is
// not blocked and the precedence order it determines keeps the graph
// acyclic; otherwise the request is delayed. No deadlocks, no rollbacks,
// but chains of blocking remain possible (the paper's main criticism).
//
// The optional MPL limit turns this into C2PL+M: admission is refused while
// `mpl` transactions are active. The experiment harness tunes mpl per
// configuration and reports the best ("the best C2PL to control
// multi-programming level").
class C2plScheduler : public WtpgSchedulerBase {
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

  void ExportCounters(CounterRegistry* registry) const override;
  void RegisterGauges(GaugeRegistry* gauges) const override;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  void AfterAdmit(Transaction& txn) override;

  Decision DecideLock(Transaction& txn, int step) override;
  void AfterGrant(Transaction& txn, int step) override;

 private:
  SimTime ddtime_;
  int mpl_;
  uint64_t predicted_deadlocks_ = 0;
  std::vector<TxnId> ancestors_scratch_;  // DecideLock's ancestor probe.
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_C2PL_H_
