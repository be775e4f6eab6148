#ifndef WTPG_SCHED_SCHED_SCHEDULER_H_
#define WTPG_SCHED_SCHED_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "lock/lock_table.h"
#include "model/transaction.h"
#include "model/types.h"
#include "sched/pending_index.h"
#include "sim/time.h"
#include "telemetry/gauge_registry.h"
#include "trace/trace_recorder.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {

// Outcome of a scheduler decision (paper Figs. 4 and 7):
//  kGrant  — the request proceeds now.
//  kBlock  — a conflicting lock is held; the machine queues the requester on
//            the granule and retries when it is released.
//  kDelay  — grantable but refused by the scheduling strategy; the machine
//            parks the requester and retries on the next state change
//            (commit / grant) or after the fallback delay.
//  kReject — admission refused outright (GOW's chain-form test); the
//            transaction is resubmitted later, like an aborted request.
//  kAbortRestart — the requester must be aborted and restarted from
//            scratch (2PL's deadlock-victim path); its locks are released
//            and all work of the incarnation is wasted.
enum class DecisionKind { kGrant, kBlock, kDelay, kReject, kAbortRestart };

struct Decision {
  DecisionKind kind = DecisionKind::kGrant;
  // Which granule the decision refers to (for kBlock bookkeeping).
  FileId file = kInvalidFile;
};

// Priority-aware admission control, enforced by the Scheduler base class
// ahead of every scheduler's own startup test (so all schedulers inherit
// it). While `low_priority_mpl` transactions with priority <
// `priority_cutoff` are active, further low-priority startups are delayed
// (parked by the machine and retried on commits); high-priority
// transactions are never gated. Disabled by default — the paper's
// closed-batch experiments run without it.
struct AdmissionControl {
  int low_priority_mpl = 0;  // 0 disables the gate.
  int priority_cutoff = 1;   // Gate applies to priority < cutoff.

  bool enabled() const { return low_priority_mpl > 0; }
};

// Static capabilities of a scheduler, declared in one value struct instead
// of a virtual per capability. The machine and the base-class grant path
// read these; a scheduler that deviates from the defaults overrides
// traits() with a one-line initializer.
struct SchedulerTraits {
  // Writes are deferred to commit (OPT's private workspace model). The
  // machine logs write accesses at commit time for such schedulers and at
  // scan time otherwise.
  bool defers_writes = false;
  // A lock grant can flip earlier kDelay decisions, so the machine should
  // retry delayed requests after each grant. True for the WTPG optimizers
  // (their E()/plan comparisons change with every orientation); false for
  // C2PL, whose delay reasons (predicted deadlock) only clear at commit —
  // and whose saturated runs make per-grant retries expensive.
  bool retry_delayed_on_grant = true;
  // Granted locks are recorded with compatibility checking (NODC clears
  // this to force-grant; OPT clears records_locks to skip entirely).
  bool checks_compatibility = true;
  bool records_locks = true;
  // DecideLock returns kBlock for the requested file if and only if the
  // lock-table compatibility test fails, and runs no side effect (counter,
  // trace event, waiting-edge bookkeeping) before that test. The machine
  // then re-parks a woken waiter without re-invoking the scheduler when the
  // lock is provably still held in a conflicting mode (the WakeFileWaiters
  // head-of-line fast path) — the decision outcome and the charged
  // LockDecisionCost are unchanged, only the host-side re-evaluation
  // disappears. False for 2PL (kBlock also records waits-for edges) and for
  // the non-blocking schedulers.
  bool pure_lock_block = false;
};

// Concurrency-control scheduler interface. The machine drives transactions
// and consults the scheduler for admission and lock decisions; decisions run
// as control-node CPU jobs whose service times come from the *Cost methods
// (Table 1 of the paper). The scheduler owns the lock table.
//
// Contract:
//  * OnStartup is called at arrival and on every admission retry. On kGrant
//    the scheduler registers the transaction (and ASL atomically acquires
//    all declared locks).
//  * OnLockRequest is called only for steps with NeedsLockAt(step) when the
//    lock is not yet held. On kGrant the lock is recorded.
//  * OnStepCompleted lets WTPG schedulers maintain the T0-edge weights.
//  * ValidateAtCommit is OPT's certification hook (false => restart).
//  * OnCommit / OnAbort end an incarnation and release bookkeeping; both
//    return the files whose locks were released (so the machine can wake
//    blocked requests).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // CPU cost charged at the control node for processing the decision.
  virtual SimTime StartupDecisionCost(const Transaction& txn) const;
  virtual SimTime LockDecisionCost(const Transaction& txn, int step) const;

  Decision OnStartup(Transaction& txn);
  Decision OnLockRequest(Transaction& txn, int step);

  virtual void OnStepCompleted(Transaction& txn, int step);
  virtual bool ValidateAtCommit(Transaction& txn);

  // The machine stamps the simulated time before every decision hook;
  // schedulers are otherwise clock-free (only OPT uses it).
  virtual void OnClock(SimTime now) { (void)now; }

  // Declarative capabilities (see SchedulerTraits). Must be constant for
  // the scheduler's lifetime.
  virtual SchedulerTraits traits() const { return SchedulerTraits{}; }

  std::vector<FileId> OnCommit(Transaction& txn);
  std::vector<FileId> OnAbort(Transaction& txn);

  LockTable& lock_table() { return lock_table_; }
  const LockTable& lock_table() const { return lock_table_; }

  // Transactions admitted and not yet committed/aborted.
  size_t num_active() const { return active_.size(); }
  const std::map<TxnId, Transaction*>& active() const { return active_; }

  // Recorder for scheduler-internal decision events (E(q) evaluations,
  // chain tests, deadlock predictions, validation outcomes). The machine
  // wires this before the run; the recorder stamps time via its now()
  // clock, which the machine refreshes per event.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Priority-aware admission gate shared by every scheduler (machine wires
  // it from config.machine.batch_mpl before the run). When enabled,
  // OnStartup delays low-priority startups while the low-priority active
  // count is at the limit, before the scheduler-specific test runs.
  void set_admission(const AdmissionControl& admission) {
    admission_ = admission;
  }
  const AdmissionControl& admission() const { return admission_; }

  // Low-priority transactions currently active / startups gated so far.
  size_t active_low_priority() const { return active_low_priority_; }
  uint64_t admission_gated() const { return admission_gated_; }

  // One decision counter: its name (for example "low.deadlock_delays") and
  // the live count.
  struct NamedCounter {
    const char* name;
    const uint64_t* value;
  };

  // This scheduler's decision counters, each named once, in export order;
  // ExportCounters and RegisterGauges both walk this list.
  virtual std::vector<NamedCounter> Counters() const { return {}; }

  // Adds Counters() to the run's registry; called once at the end of a run.
  void ExportCounters(CounterRegistry* registry) const;

  // Adds the graph-evaluation counter ("wtpg.evals") for the schedulers
  // that test a precedence graph. The machine exports it only on
  // telemetry-enabled runs (same gate as the health counters) so historical
  // aggregate JSON stays byte-identical.
  virtual void ExportDecisionCounters(CounterRegistry* registry) const {
    (void)registry;
  }

  // Registers this scheduler's live gauges for periodic sampling, in column
  // order: the structural "sched.*" and lock-table gauges, then
  // RegisterGraphGauges' (the WTPG size for GOW and LOW), then one per
  // Counters() entry. Called once during machine construction when
  // telemetry is enabled.
  void RegisterGauges(GaugeRegistry* gauges) const;

 protected:
  // --- Template-method hooks ---

  virtual Decision DecideStartup(Transaction& txn) = 0;
  // Registration already happened when this runs (ASL acquires locks here).
  virtual void AfterAdmit(Transaction& /*txn*/) {}

  virtual Decision DecideLock(Transaction& txn, int step) = 0;
  // Called the moment a granted lock lands in the table (before AfterGrant),
  // so schedulers keeping derived lock-state indexes (the PendingIndex of
  // C2PL, GOW and LOW) update them at the source of truth.
  // Not called when traits().records_locks is false.
  virtual void OnLockRecorded(Transaction& /*txn*/, FileId /*file*/) {}
  // Lock already recorded when this runs (GOW and LOW orient edges).
  virtual void AfterGrant(Transaction& /*txn*/, int /*step*/) {}

  // Called while the leaving transaction still holds its locks (C2PL
  // walks the leaver's precedence through the lock table); ReleaseAll
  // follows.
  virtual void AfterCommit(Transaction& /*txn*/) {}
  virtual void AfterAbort(Transaction& /*txn*/) {}

  // See RegisterGauges.
  virtual void RegisterGraphGauges(GaugeRegistry* /*gauges*/) const {}

  // True when scheduler-internal tracing is on (guard event payload work).
  bool tracing() const { return trace_ != nullptr && trace_->enabled(); }

  LockTable lock_table_;
  std::map<TxnId, Transaction*> active_;
  TraceRecorder* trace_ = nullptr;

 private:
  // OnCommit and OnAbort: unregisters txn, runs its hook, releases locks.
  std::vector<FileId> End(Transaction& txn, bool commit);

  // Admission-control state (base-class only; OnStartup / OnCommit /
  // OnAbort maintain the low-priority active count).
  AdmissionControl admission_;
  size_t active_low_priority_ = 0;
  uint64_t admission_gated_ = 0;
};

// Shared machinery for the schedulers that maintain a weighted
// transaction-precedence graph: GOW and LOW.
class WtpgSchedulerBase : public Scheduler {
 public:
  const Wtpg& graph() const { return graph_; }

  void OnStepCompleted(Transaction& txn, int step) override;

  void ExportDecisionCounters(CounterRegistry* registry) const override;

  // Always 0: no decision is memoized. Kept because the host benchmark
  // (hostbench/hostbench.cc) still reads them for its hit-rate metrics.
  uint64_t cache_hits() const { return 0; }
  uint64_t cache_misses() const { return 0; }
  // Graph evaluations executed: LOW's EvaluateGrant and GOW's chain-plan
  // speculations.
  uint64_t wtpg_evals() const { return wtpg_evals_; }

 protected:
  // Adds txn to the graph: node with W0 = declared total, conflict edges to
  // every conflicting active transaction, and pre-orientations u -> txn for
  // every u already holding a conflicting lock (strict locking forces the
  // order as soon as u holds the granule). Also enters txn's declared
  // accesses in the pending index.
  void AddToGraph(Transaction& txn);

  // Orients requester -> u for every pending conflicter after a grant.
  // The decision logic must have verified feasibility; failures are bugs.
  void OrientAfterGrant(Transaction& txn, FileId file, LockMode mode);

  void RegisterGraphGauges(GaugeRegistry* gauges) const override;
  void OnLockRecorded(Transaction& txn, FileId file) override;
  void AfterCommit(Transaction& txn) override { RemoveFromGraph(txn); }
  void AfterAbort(Transaction& txn) override { RemoveFromGraph(txn); }

  Wtpg graph_;
  PendingIndex pending_;
  uint64_t wtpg_evals_ = 0;

 private:
  void RemoveFromGraph(Transaction& txn);

  std::vector<TxnId> holders_scratch_;  // AddToGraph pre-orientation scan.
  std::vector<TxnId> targets_scratch_;  // OrientAfterGrant batch.
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_SCHEDULER_H_
