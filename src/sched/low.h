#ifndef WTPG_SCHED_SCHED_LOW_H_
#define WTPG_SCHED_SCHED_LOW_H_

#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace wtpgsched {

// Locally-Optimized WTPG scheduler (paper Section 3.3, Figs. 5 and 7;
// called the K-conflict WTPG scheduler in ref [13]).
//
// Phase1: a request conflicting with a held lock is blocked.
// Phase2: E(q) = critical path of the WTPG after hypothetically granting q
//   (with forced orientation of conflict edges); infinity — i.e. deadlock —
//   delays q.
// Phase3: q is granted only if E(q) <= E(p) for every conflicting
//   access-declaration p in C(q); otherwise the lock should go to the
//   transaction declaring the cheaper p first, so q is delayed.
// Phase4: orient the newly determined edges.
//
// |C(q)| is limited to K: a new transaction starts only while no granule's
// set of mutually conflicting pending declarations would exceed K + 1
// transactions. Unlike GOW's chain form, this still admits non-chain WTPGs.
class LowScheduler : public WtpgSchedulerBase {
 public:
  // kwtpgtime: CPU cost of one E() evaluation. When charge_per_eval is
  // true (default, see DESIGN.md) a decision costs
  // kwtpgtime * (1 + |C(q)|); otherwise a flat kwtpgtime.
  LowScheduler(int k, SimTime kwtpgtime, bool charge_per_eval = true);

  std::string name() const override;

  SimTime LockDecisionCost(const Transaction& txn, int step) const override;

  int k() const { return k_; }
  uint64_t admission_k_rejections() const { return admission_k_rejections_; }
  uint64_t deadlock_delays() const { return deadlock_delays_; }

  SchedulerTraits traits() const override {
    return {.pure_lock_block = true};
  }

  std::vector<NamedCounter> Counters() const override;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  void CountRepeatedRefusals(uint64_t refused) override {
    admission_k_rejections_ += refused;
  }
  void AfterAdmit(Transaction& txn) override;

  Decision DecideLock(Transaction& txn, int step) override;
  void AfterGrant(Transaction& txn, int step) override;

  // Hook for the LOW-LB extension: extra penalty added to E(q) of a
  // hypothetical grant (load-balancing term). Default 0.
  virtual double GrantPenalty(const Transaction& txn, int step) const;

 private:
  // True if admitting `txn` keeps every granule's conflicting pending
  // declaration count within K for every would-be requester.
  bool AdmissionWithinK(const Transaction& txn) const;

  int k_;
  SimTime kwtpgtime_;
  bool charge_per_eval_;
  uint64_t admission_k_rejections_ = 0;
  uint64_t deadlock_delays_ = 0;
  // DecideLock scratch (|C(q)| <= K): the E(q) competitor set and the inner
  // per-competitor C(p) list live across EvaluateGrant calls, so two.
  std::vector<TxnId> competitors_scratch_;
  std::vector<TxnId> cp_scratch_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_LOW_H_
