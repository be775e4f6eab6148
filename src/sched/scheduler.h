#ifndef WTPG_SCHED_SCHED_SCHEDULER_H_
#define WTPG_SCHED_SCHED_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "lock/lock_table.h"
#include "model/transaction.h"
#include "model/types.h"
#include "sim/time.h"
#include "telemetry/gauge_registry.h"
#include "trace/trace_recorder.h"
#include "util/file_index.h"
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
  // Each admission (re)test consumes control-node CPU, in which case the
  // machine bounds how many parked startups it retests per wake event
  // (config.run.admission_retry_limit). False for schedulers whose
  // admission test is a plain lock-table scan.
  bool costly_admission = false;
  // A lock grant can flip earlier kDelay decisions, so the machine should
  // retry delayed requests after each grant. True for the WTPG optimizers
  // (their E()/plan comparisons change with every orientation); false for
  // C2PL, whose delay reasons (predicted deadlock) only clear at commit —
  // and whose saturated graphs make per-grant retries expensive.
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

  // Adds this scheduler's decision counters (e.g. "low.deadlock_delays")
  // to the run's registry; called once at the end of a run.
  virtual void ExportCounters(CounterRegistry* registry) const {
    (void)registry;
  }

  // Adds the graph-evaluation counter ("wtpg.evals") for the schedulers
  // that keep a WTPG. The machine exports it only on telemetry-enabled runs
  // (same gate as the health counters) so historical aggregate JSON stays
  // byte-identical.
  virtual void ExportDecisionCounters(CounterRegistry* registry) const {
    (void)registry;
  }

  // Registers this scheduler's live gauges (active MPL, lock-table size,
  // WTPG size, running decision counts) for periodic sampling; called once
  // during machine construction when telemetry is enabled. Overrides must
  // call the base first so "sched.*" columns precede scheduler-specific
  // ones.
  virtual void RegisterGauges(GaugeRegistry* gauges) const;

 protected:
  // --- Template-method hooks ---

  virtual Decision DecideStartup(Transaction& txn) = 0;
  // Registration already happened when this runs (ASL acquires locks here).
  virtual void AfterAdmit(Transaction& /*txn*/) {}

  virtual Decision DecideLock(Transaction& txn, int step) = 0;
  // Called the moment a granted lock lands in the table (before AfterGrant),
  // so schedulers keeping derived lock-state indexes (e.g. the pending-
  // accessor index in WtpgSchedulerBase) update them at the source of truth.
  // Not called when traits().records_locks is false.
  virtual void OnLockRecorded(Transaction& /*txn*/, FileId /*file*/) {}
  // Lock already recorded when this runs (WTPG schedulers orient edges).
  virtual void AfterGrant(Transaction& /*txn*/, int /*step*/) {}

  virtual void AfterCommit(Transaction& /*txn*/) {}
  virtual void AfterAbort(Transaction& /*txn*/) {}

  // True when scheduler-internal tracing is on (guard event payload work).
  bool tracing() const { return trace_ != nullptr && trace_->enabled(); }

  LockTable lock_table_;
  std::map<TxnId, Transaction*> active_;
  TraceRecorder* trace_ = nullptr;

 private:
  // Admission-control state (base-class only; OnStartup / OnCommit /
  // OnAbort maintain the low-priority active count).
  AdmissionControl admission_;
  size_t active_low_priority_ = 0;
  uint64_t admission_gated_ = 0;
};

// Shared machinery for the schedulers that maintain a (weighted or
// unweighted) transaction-precedence graph: C2PL, GOW, LOW.
class WtpgSchedulerBase : public Scheduler {
 public:
  const Wtpg& graph() const { return graph_; }

  void OnStepCompleted(Transaction& txn, int step) override;

  // Adds the precedence-graph size gauges shared by C2PL / GOW / LOW.
  void RegisterGauges(GaugeRegistry* gauges) const override;

  void ExportDecisionCounters(CounterRegistry* registry) const override;

  // Always 0: no decision is memoized. Kept because the host benchmark
  // (hostbench/hostbench.cc) still reads them for its hit-rate metrics.
  uint64_t cache_hits() const { return 0; }
  uint64_t cache_misses() const { return 0; }
  // Graph evaluations executed: C2PL's ancestor probes, LOW's
  // EvaluateGrant and GOW's chain-plan speculations.
  uint64_t wtpg_evals() const { return wtpg_evals_; }

 protected:
  // A declared-but-ungranted access: one entry per (file, active txn) pair,
  // kept in the per-file index below until the lock is recorded or the
  // incarnation ends.
  struct PendingAccess {
    TxnId txn;
    LockMode mode;  // The declared (strongest) mode for the file.
  };

  // Per-file pending list plus the count of exclusive-mode entries. With
  // the two-mode S/X lattice a request conflicts with every entry when it
  // is X and with exactly the X entries when it is S, so the running count
  // collapses per-file conflict counting — and LOW's AdmissionWithinK —
  // from O(P) scans to O(1) arithmetic.
  struct PendingList {
    std::vector<PendingAccess> items;  // Sorted by TxnId.
    int32_t x_count = 0;
  };

  // Adds txn to the graph: node with W0 = declared total, conflict edges to
  // every conflicting active transaction, and pre-orientations u -> txn for
  // every u already holding a conflicting lock (strict locking forces the
  // order as soon as u holds the granule). Also registers txn's declared
  // accesses in the pending-accessor index.
  void AddToGraph(Transaction& txn);

  void OnLockRecorded(Transaction& txn, FileId file) override;
  void AfterCommit(Transaction& txn) override;
  void AfterAbort(Transaction& txn) override;

  // Pending accessors of `file`, ascending TxnId. Maintained incrementally
  // (insert at admission, erase at grant / commit / abort) so admission and
  // lock decisions need no rescan of the active set. References stay valid
  // only until the next such mutation.
  const std::vector<PendingAccess>& PendingAccessors(FileId file) const {
    return PendingListOf(file).items;
  }
  const PendingList& PendingListOf(FileId file) const {
    const int32_t slot = pending_slots_.Find(file);
    return slot == FileIndex::kAbsent
               ? kNoPending
               : pending_by_file_[static_cast<size_t>(slot)];
  }

  // Active transactions (other than `requester`) that have a *pending*
  // (declared but not yet granted) access to `file` conflicting with
  // `mode`. These are the C(q) candidates and the orientation targets of a
  // grant. The out-parameter variant clears and fills *out; the counting
  // variant avoids materializing the list at all (decision-cost queries).
  std::vector<TxnId> PendingConflicters(FileId file, TxnId requester,
                                        LockMode mode) const;
  void PendingConflicters(FileId file, TxnId requester, LockMode mode,
                          std::vector<TxnId>* out) const;
  size_t CountPendingConflicters(FileId file, TxnId requester,
                                 LockMode mode) const;

  // Orients requester -> u for every pending conflicter after a grant.
  // The decision logic must have verified feasibility; failures are bugs.
  void OrientAfterGrant(Transaction& txn, FileId file, LockMode mode);

  Wtpg graph_;
  uint64_t wtpg_evals_ = 0;

 private:
  void RemovePending(FileId file, TxnId txn);

  // Sparse-mode removal compensation: the dense closure materializes the
  // forced orientation of every conflicting pair the moment a directed path
  // connects them, and oriented edges outlive the path (the intermediary
  // may be removed). A sparse graph holds only the paths, so before
  // removing `txn` this re-materializes, as a direct edge, the orientation
  // x -> y of every *conflicting* pair with x an ancestor and y a
  // descendant of `txn` — exactly the edges the dense closure would
  // already hold. Under C2PL driving a committing transaction provably has
  // no live ancestors (strict locking plus delay-on-predicted-cycle remove
  // every predecessor first), so this costs one empty ancestor probe per
  // commit and only does pair work on abort removals.
  void CompensateSparseRemoval(Transaction& txn);

  // Indexed by pending_slots_.Find(file), a slot taken when an admitted
  // transaction first declares the file; each list sorted by TxnId so
  // index-driven queries see the same ascending order the historical
  // active_-map scan produced.
  FileIndex pending_slots_;
  std::vector<PendingList> pending_by_file_;
  static const PendingList kNoPending;
  std::vector<TxnId> holders_scratch_;   // AddToGraph pre-orientation scan.
  std::vector<TxnId> targets_scratch_;   // OrientAfterGrant batch.
  std::vector<TxnId> anc_scratch_;       // CompensateSparseRemoval sets.
  std::vector<TxnId> desc_scratch_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_SCHEDULER_H_
