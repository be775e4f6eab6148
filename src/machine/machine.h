#ifndef WTPG_SCHED_MACHINE_MACHINE_H_
#define WTPG_SCHED_MACHINE_MACHINE_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/schedule_log.h"
#include "machine/config.h"
#include "machine/control_node.h"
#include "machine/data_placement.h"
#include "machine/dpn.h"
#include "metrics/stats.h"
#include "model/transaction.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "trace/trace_recorder.h"
#include "util/random.h"
#include "workload/workload.h"

namespace wtpgsched {

// The simulated Shared-Nothing machine (paper Fig. 1 / Section 4.1): one
// control node plus NumNodes data-processing nodes, driven by a Poisson
// stream of batch transactions and one concurrency-control scheduler.
//
// Execution of a transaction:
//   arrival -> startup decision at CN (sot_time + scheduler cost) ->
//   per step: lock decision at CN (scheduler cost) when a new lock is
//   needed; on grant, CN sends the txn to the file's home node (msgtime),
//   DD cohorts scan in round-robin on the DPNs, the txn returns to CN
//   (msgtime) and issues its next step -> commit at CN (cot_time), locks
//   released, parked requests retried.
//
// Parked requests: blocked requests queue FIFO per granule and retry when
// the granule is released; delayed requests and refused admissions retry on
// every commit (and on grants, and after the fallback delay) — see
// DESIGN.md, "Substitutions". Each retry is a CN job. Consecutive admission
// retries whose StartupDecisionCost is zero share one multi-step CN job (a
// sweep, FcfsServer::SubmitSteps): every step decides the next parked id at
// the instant its own job would have, so a storm of refused retests costs
// no event-queue traffic.
class Machine {
 public:
  Machine(const SimConfig& config, Pattern pattern);

  // Weighted pattern mix (see examples/mixed_workload.cpp).
  Machine(const SimConfig& config, std::vector<WeightedPattern> mix);

  // Injects a custom scheduler instead of building one from
  // config.scheduler (see examples/custom_scheduler.cpp).
  Machine(const SimConfig& config, Pattern pattern,
          std::unique_ptr<Scheduler> scheduler);

  // Fully general form: any workload source, any scheduler.
  Machine(const SimConfig& config, WorkloadGenerator workload,
          std::unique_ptr<Scheduler> scheduler);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Runs the simulation to config.horizon() and returns aggregate stats.
  // Call at most once.
  RunStats Run();

  Simulator& simulator() { return sim_; }
  Scheduler& scheduler() { return *scheduler_; }
  const DataPlacement& placement() const { return placement_; }
  const ScheduleLog& schedule_log() const { return log_; }
  const SimConfig& config() const { return config_; }

  // Run-health telemetry: the sampled gauge store and detectors. Null when
  // telemetry_sample_ms is 0 — a disabled run pays nothing.
  const Telemetry* telemetry() const { return telemetry_.get(); }

  // Structured event trace (empty unless config.run.trace_enabled). Holds the
  // most recent config.run.trace_capacity events; per-type counts cover the
  // whole run.
  const TraceRecorder& trace() const { return trace_; }

  // Scan backlog (objects) over the nodes holding `file`'s partitions
  // (LOW-LB load probe).
  double BacklogObjectsForFile(FileId file) const;

  // Transactions arrived but not yet committed.
  size_t in_flight() const { return in_flight_; }

  // Retry-storm visibility: lock/startup decisions re-run for transactions
  // that were already parked, and lock decisions resolved by the
  // pure_lock_block fast path without invoking the scheduler. Host-side
  // observability only — neither alters the simulation.
  uint64_t decision_retries() const { return decision_retries_; }
  uint64_t block_shortcuts() const { return block_shortcuts_; }

 private:
  // Per-transaction machine state. The workload numbers transactions
  // densely from 1 (CHECKed at arrival), so T<id> lives in slot id - 1; its
  // txn is reset at commit.
  struct TxnSlot {
    std::unique_ptr<Transaction> txn;
    bool pending_decision = false;  // A CN decision job is in flight.
    int cohorts_remaining = 0;      // Still scanning the executing step.
    // (node, job) handles of the executing step's in-flight cohorts: the
    // crash-victim test and the cancel handles of a fault abort. Recorded
    // only when faults are enabled.
    std::vector<std::pair<NodeId, RoundRobinServer::JobId>> cohort_jobs = {};
  };
  TxnSlot& SlotOf(TxnId id) { return txns_[static_cast<size_t>(id - 1)]; }
  Transaction& GetTxn(TxnId id);

  // --- Arrival ---
  void ScheduleNextArrival();
  void OnArrival();

  // --- Decisions (CN CPU jobs) ---
  // Submits the first startup decision of an incarnation, charged sot_time
  // on top of the scheduler's cost. Retests go through RetryAdmissions.
  void RequestStartup(TxnId id);
  void OnStartupDecision(TxnId id);
  void RequestLock(TxnId id);
  void OnLockDecision(TxnId id);

  // --- Execution ---
  void BeginStep(TxnId id);
  void DispatchStep(TxnId id);   // CN send message, then cohorts.
  void StartCohorts(TxnId id);
  void OnCohortDone(TxnId id, NodeId node);
  void OnStepReturned(TxnId id);  // CN receive message done.

  // --- Commit ---
  void RequestCommit(TxnId id);
  void OnCommitDone(TxnId id);

  // --- Faults (src/fault/, DESIGN.md "Fault model") ---
  // Forks one stream per fault source and schedules each source's first
  // event. Every handler below draws its source's next event as it fires,
  // so a source has at most one event pending.
  void StartFaultSources();
  // Schedules `cb` `delay_ms` from now, or drops it when that falls at or
  // beyond the horizon, which ends the source.
  void ScheduleFault(double delay_ms, EventQueue::Callback cb);
  void OnDpnCrash(NodeId node);
  void OnDpnRepair(NodeId node);
  void OnSlowdownStart(NodeId node);
  void OnSlowdownEnd(NodeId node);
  void OnInjectAbort();
  // Aborts an in-flight transaction from outside the scheduler: cancels its
  // surviving cohorts, releases its locks through Scheduler::OnAbort, and
  // restarts it after an exponential backoff with deterministic jitter.
  void FaultAbort(TxnId id, AbortReason reason);
  // Removes `id` from whichever parked list holds it (if any).
  void Unpark(TxnId id);
  // Fault counters register lazily so a zero-fault run's counter set — and
  // therefore its JSON output — is byte-identical to a faultless build.
  uint64_t& FaultCounter(const char* name);

  // --- Parked-request retry ---
  void ParkAdmission(TxnId id);
  void ParkBlocked(TxnId id, FileId file);
  void ParkDelayed(TxnId id);
  void WakeFileWaiters(FileId file);
  void RetryDelayed();
  void RetryAdmissions();
  void EnsureFallbackTimer();

  // --- Telemetry sampling ---
  // Registers the machine-level gauges (in-flight, parked, CN queue,
  // per-DPN utilization/backlog, wait ages, ...) plus the scheduler's own.
  void RegisterMachineGauges();
  void ScheduleTelemetrySample();
  void TakeTelemetrySample();
  uint64_t ParkedCount() const;
  // (max, mean) age in seconds over all parked transactions.
  std::pair<double, double> WaitAges() const;

  SimConfig config_;
  Simulator sim_;
  DataPlacement placement_;
  WorkloadGenerator workload_;
  std::unique_ptr<Scheduler> scheduler_;
  ControlNode cn_;
  std::vector<std::unique_ptr<Dpn>> dpns_;
  StatsCollector stats_;
  ScheduleLog log_;
  std::unique_ptr<Telemetry> telemetry_;
  TraceRecorder trace_;

  std::vector<TxnSlot> txns_;
  size_t in_flight_ = 0;
  // Parked transactions. A parked txn is in exactly one list; a txn with a
  // decision job in flight is in none.
  std::deque<TxnId> admission_wait_;
  // Ids decided by queued sweep steps, in step order (each sweep appends
  // its block; the CN is FIFO, so steps pop them from the front).
  std::deque<TxnId> sweep_ids_;
  std::unordered_map<FileId, std::deque<TxnId>> file_waiters_;
  std::deque<TxnId> delayed_;

  // --- Fault state (inert unless config.fault.enabled()) ---
  const bool faults_enabled_;
  // Per-source streams, forked by StartFaultSources: crash/repair gaps and
  // straggler-window gaps per node, and the injections' gaps and victim
  // picks. Independent of the workload streams.
  std::vector<Rng> crash_rngs_;
  std::vector<Rng> straggler_rngs_;
  Rng abort_rng_;
  // Backoff jitter; salted off the run seed, independent of the source
  // streams and of the workload streams.
  Rng fault_rng_;

  uint64_t arrivals_generated_ = 0;
  uint64_t decision_retries_ = 0;
  uint64_t block_shortcuts_ = 0;
  bool fallback_timer_active_ = false;
  bool ran_ = false;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_MACHINE_H_
