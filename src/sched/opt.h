#ifndef WTPG_SCHED_SCHED_OPT_H_
#define WTPG_SCHED_SCHED_OPT_H_

#include <string>
#include <unordered_map>

#include "sched/scheduler.h"

namespace wtpgsched {

// Optimistic locking (paper Section 4.2, ref [11] Kung-Robinson):
// transactions execute without any locking; serializability is certified at
// commit by backward validation, and a transaction that fails certification
// is aborted and restarted.
//
// Validation rule (documented substitution, DESIGN.md): transaction T fails
// if any file it accessed (read or written) was written by a transaction
// that committed during T's current incarnation. Checking writes as well as
// reads is needed for file-granule batch workloads like Experiment 2, whose
// hot-set conflicts are write-write; a read-set-only check would make OPT
// spuriously abort-free there, contradicting the paper's observed behaviour.
class OptScheduler : public Scheduler {
 public:
  explicit OptScheduler(bool validate_writes = true)
      : validate_writes_(validate_writes) {}

  std::string name() const override { return "OPT"; }

  void OnClock(SimTime now) override { now_ = now; }

  SchedulerTraits traits() const override {
    return {.defers_writes = true, .records_locks = false};
  }

  bool ValidateAtCommit(Transaction& txn) override;

  uint64_t validation_failures() const { return validation_failures_; }

  std::vector<NamedCounter> Counters() const override;

 protected:
  Decision DecideStartup(Transaction& txn) override;
  Decision DecideLock(Transaction& txn, int step) override;
  void AfterCommit(Transaction& txn) override;

 private:
  bool validate_writes_;
  SimTime now_ = 0;
  // Last time each file was written by a committed transaction.
  std::unordered_map<FileId, SimTime> last_write_commit_;
  // Start time of each active incarnation.
  std::unordered_map<TxnId, SimTime> incarnation_start_;
  uint64_t validation_failures_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_OPT_H_
