#include "machine/machine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sched/low_lb.h"
#include "sched/scheduler_factory.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {

namespace {

// Salt separating the fault-source streams from the workload streams, which
// are seeded directly from the replica seed. Arbitrary odd 64-bit constant.
constexpr uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ull;

// workload.zipf_theta overlays Zipf skew onto whatever pattern (or mix) the
// caller supplied. theta == 0 returns the input untouched — including its
// zero ZipfSampler state — so unskewed configs stay byte-identical.
Pattern ApplyZipf(Pattern pattern, double theta) {
  if (theta <= 0.0) return pattern;
  return pattern.WithZipf(theta);
}

std::vector<WeightedPattern> ApplyZipf(std::vector<WeightedPattern> mix,
                                       double theta) {
  if (theta > 0.0) {
    for (WeightedPattern& wp : mix) wp.pattern = wp.pattern.WithZipf(theta);
  }
  return mix;
}

}  // namespace

Machine::Machine(const SimConfig& config, Pattern pattern)
    : Machine(config, std::move(pattern), CreateScheduler(config)) {}

Machine::Machine(const SimConfig& config, std::vector<WeightedPattern> mix)
    : Machine(config,
              WorkloadGenerator(ApplyZipf(std::move(mix), config.workload.zipf_theta),
                                config.workload.arrival_rate_tps,
                                config.machine.dd, ErrorModel{config.workload.error_sigma},
                                config.run.seed),
              CreateScheduler(config)) {}

Machine::Machine(const SimConfig& config, Pattern pattern,
                 std::unique_ptr<Scheduler> scheduler)
    : Machine(config,
              WorkloadGenerator(ApplyZipf(std::move(pattern), config.workload.zipf_theta),
                                config.workload.arrival_rate_tps,
                                config.machine.dd, ErrorModel{config.workload.error_sigma},
                                config.run.seed),
              std::move(scheduler)) {}

Machine::Machine(const SimConfig& config, WorkloadGenerator workload,
                 std::unique_ptr<Scheduler> scheduler)
    : config_(config),
      sim_(),
      placement_(config.machine.num_nodes, config.machine.num_files, config.machine.dd),
      workload_(std::move(workload)),
      scheduler_(std::move(scheduler)),
      cn_(&sim_, config),
      stats_(config.warmup(), config.horizon(),
             TailOptions{config.run.tail_metrics, config.run.tail_sketch}),
      faults_enabled_(config.fault.enabled()),
      abort_rng_(0),
      fault_rng_(config.run.seed ^ 0xda3e39cb94b95bdbull) {
  const Status valid = config.Validate();
  WTPG_CHECK(valid.ok()) << valid.ToString();
  WTPG_CHECK_LT(workload_.MaxFileId(), config.machine.num_files)
      << "pattern references files beyond num_files";
  dpns_.reserve(static_cast<size_t>(config.machine.num_nodes));
  for (int i = 0; i < config.machine.num_nodes; ++i) {
    dpns_.push_back(std::make_unique<Dpn>(&sim_, i, config.costs.obj_time_ms));
  }
  if (auto* low_lb = dynamic_cast<LowLbScheduler*>(scheduler_.get())) {
    low_lb->set_load_probe(
        [this](FileId file) { return BacklogObjectsForFile(file); });
  }
  if (config.run.trace_enabled) {
    trace_.Enable(static_cast<size_t>(config.run.trace_capacity));
  }
  // Wired even when disabled: Record() is a no-op then, and the scheduler
  // and lock table stay oblivious to whether tracing is on.
  scheduler_->set_trace(&trace_);
  scheduler_->lock_table().set_trace(&trace_);
  if (config.machine.batch_mpl > 0) {
    scheduler_->set_admission(AdmissionControl{config.machine.batch_mpl});
  }
  // Run-health telemetry: constructed only when sampling is on, which also
  // opts the run into the health.* counters (see Run()).
  const double sample_ms = config.run.telemetry_sample_ms;
  if (sample_ms > 0.0) {
    // The configured capacity is an upper bound; a finite horizon needs at
    // most horizon/period rows, so clamp to that and keep the per-replica
    // allocation proportional to the run instead of the default ring size.
    const uint64_t expected =
        static_cast<uint64_t>(config.run.horizon_ms / sample_ms) + 1;
    telemetry_ = std::make_unique<Telemetry>(
        MsToTime(sample_ms),
        static_cast<size_t>(
            std::min(config.run.telemetry_capacity, expected)));
    RegisterMachineGauges();
    telemetry_->Seal();
  }
}

void Machine::RegisterMachineGauges() {
  GaugeRegistry& gauges = telemetry_->gauges();
  // Registration order is the store's column order, and exported CSV and
  // trace counter tracks name the columns, so renames here are breaking.
  gauges.Register("machine.in_flight", [this] {
    return static_cast<double>(in_flight_);
  });
  scheduler_->RegisterGauges(&gauges);
  gauges.Register("machine.parked", [this] {
    return static_cast<double>(ParkedCount());
  });
  gauges.Register("cn.queue", [this] {
    return static_cast<double>(cn_.queue_length());
  });
  gauges.Register("dpn.backlog_objects", [this] {
    double backlog = 0.0;
    for (const auto& dpn : dpns_) backlog += dpn->BacklogObjects();
    return backlog;
  });
  gauges.Register("machine.commits", [this] {
    return static_cast<double>(stats_.completions_so_far());
  });
  // Cumulative restarts (validation failures, deadlock victims, fault
  // aborts): resolved once — the registry's deque keeps the ref stable.
  const uint64_t* restarts = &stats_.counters().Counter("restarts");
  gauges.Register("machine.restarts", [restarts] {
    return static_cast<double>(*restarts);
  });
  gauges.Register("admission.gated", [this] {
    return static_cast<double>(scheduler_->admission_gated());
  });
  gauges.Register("cn.utilization", [this] { return cn_.Utilization(); });
  gauges.Register("lock.waiters", [this] {
    size_t waiters = 0;
    for (const auto& [file, queue] : file_waiters_) {
      (void)file;
      waiters += queue.size();
    }
    return static_cast<double>(waiters);
  });
  gauges.Register("wait.max_age_s", [this] { return WaitAges().first; });
  gauges.Register("wait.mean_age_s", [this] { return WaitAges().second; });
  for (int i = 0; i < config_.machine.num_nodes; ++i) {
    const auto node = static_cast<size_t>(i);
    gauges.Register(StrCat("dpn", i, ".utilization"), [this, node] {
      return dpns_[node]->Utilization();
    });
    gauges.Register(StrCat("dpn", i, ".backlog_objects"), [this, node] {
      return dpns_[node]->BacklogObjects();
    });
  }
  if (faults_enabled_) {
    gauges.Register("fault.down_nodes", [this] {
      size_t down = 0;
      for (const auto& dpn : dpns_) {
        if (!dpn->up()) ++down;
      }
      return static_cast<double>(down);
    });
  }
}

uint64_t Machine::ParkedCount() const {
  uint64_t parked = admission_pool_.size() - swept_ + delayed_.size();
  for (const auto& [file, waiters] : file_waiters_) {
    (void)file;
    parked += waiters.size();
  }
  return parked;
}

std::pair<double, double> Machine::WaitAges() const {
  const SimTime now = sim_.Now();
  double max_age = 0.0;
  double total_age = 0.0;
  size_t count = 0;
  auto visit = [&](TxnId id) {
    const Transaction* txn = txns_[static_cast<size_t>(id - 1)].txn.get();
    if (txn == nullptr) return;
    const double age = TimeToSeconds(now - txn->arrival_time);
    max_age = std::max(max_age, age);
    total_age += age;
    ++count;
  };
  for (TxnId id = FirstUnswept(); id != kInvalidTxn;
       id = admission_pool_.next(id)) {
    visit(id);
  }
  for (TxnId id : delayed_) visit(id);
  for (const auto& [file, waiters] : file_waiters_) {
    (void)file;
    for (TxnId id : waiters) visit(id);
  }
  return {max_age, count == 0 ? 0.0 : total_age / static_cast<double>(count)};
}

double Machine::BacklogObjectsForFile(FileId file) const {
  double total = 0.0;
  for (int c = 0; c < placement_.dd(); ++c) {
    total += dpns_[static_cast<size_t>(placement_.NodeFor(file, c))]
                 ->BacklogObjects();
  }
  return total / placement_.dd();
}

Transaction& Machine::GetTxn(TxnId id) {
  WTPG_CHECK(id >= 1 && static_cast<size_t>(id) <= txns_.size())
      << "unknown T" << id;
  Transaction* txn = SlotOf(id).txn.get();
  WTPG_CHECK(txn != nullptr) << "committed T" << id;
  return *txn;
}

RunStats Machine::Run() {
  WTPG_CHECK(!ran_) << "Machine::Run() called twice";
  ran_ = true;
  if (faults_enabled_) StartFaultSources();
  ScheduleNextArrival();
  ScheduleTelemetrySample();
  sim_.RunUntil(config_.horizon());

  double mean_util = 0.0;
  double max_util = 0.0;
  for (const auto& dpn : dpns_) {
    mean_util += dpn->Utilization();
    max_util = std::max(max_util, dpn->Utilization());
  }
  mean_util /= static_cast<double>(dpns_.size());
  scheduler_->ExportCounters(&stats_.counters());
  // Only surfaced when the admission gate actually fired, so counter sets
  // (and the golden JSON built from them) are unchanged for ungated runs.
  if (scheduler_->admission_gated() > 0) {
    stats_.counters().Counter("admission.gated") = scheduler_->admission_gated();
  }
  if (trace_.enabled()) trace_.ExportCounters(&stats_.counters());
  // health.* counters exist only in telemetry runs, so a run without
  // sampling keeps its counter set — and its golden JSON — unchanged. The
  // decision-path counters (retry storms and graph evaluations) share the
  // gate, in fixed order ahead of the health set.
  if (telemetry_ != nullptr) {
    stats_.counters().Counter("sched.decision_retries") = decision_retries_;
    stats_.counters().Counter("sched.block_shortcuts") = block_shortcuts_;
    scheduler_->ExportDecisionCounters(&stats_.counters());
    telemetry_->ExportHealthCounters(&stats_.counters());
  }
  return stats_.Finalize(cn_.Utilization(), mean_util, max_util,
                         in_flight());
}

// --- Arrival ---

void Machine::ScheduleNextArrival() {
  if (config_.workload.max_arrivals > 0 &&
      arrivals_generated_ >= config_.workload.max_arrivals) {
    return;
  }
  sim_.ScheduleAfter(workload_.NextInterarrival(), [this] { OnArrival(); });
}

void Machine::OnArrival() {
  ++arrivals_generated_;
  std::unique_ptr<Transaction> txn = workload_.NextTransaction();
  const TxnId id = txn->id();
  txn->arrival_time = sim_.Now();
  trace_.set_now(sim_.Now());
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kArrive,
                 .txn = id,
                 .arg = static_cast<int32_t>(txn->num_steps())});
  WTPG_CHECK_EQ(static_cast<size_t>(id - 1), txns_.size())
      << "transaction ids must arrive dense and increasing from 1";
  txns_.push_back(TxnSlot{.txn = std::move(txn)});
  ++in_flight_;
  stats_.RecordArrival();
  RequestStartup(id);
  ScheduleNextArrival();
}

// --- Decisions ---

void Machine::RequestStartup(TxnId id) {
  if (std::exchange(SlotOf(id).pending_decision, true)) return;
  cn_.SubmitStartup(scheduler_->StartupDecisionCost(),
                    [this, id] { OnStartupDecision(id); });
}

void Machine::OnStartupDecision(TxnId id) {
  SlotOf(id).pending_decision = false;
  const DecisionKind kind = DecideStartup(id);
  if (kind == DecisionKind::kGrant) return;
  ParkAdmission(id);
  if (kind != DecisionKind::kReject) NoteRefused(id);
}

void Machine::NoteRefused(TxnId id) {
  admission_pool_.ClassOf(id).refused_epoch = scheduler_->admission_epoch();
}

DecisionKind Machine::DecideStartup(TxnId id) {
  Transaction& txn = GetTxn(id);
  scheduler_->OnClock(sim_.Now());
  trace_.set_now(sim_.Now());
  const Decision decision = scheduler_->OnStartup(txn);
  switch (decision.kind) {
    case DecisionKind::kGrant:
      txn.set_state(Transaction::State::kActive);
      txn.admit_time = sim_.Now();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kAdmit,
                     .txn = id,
                     .incarnation = txn.restarts});
      BeginStep(id);
      break;
    case DecisionKind::kBlock:
    case DecisionKind::kDelay:
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kAdmissionDelayed,
                     .txn = id,
                     .incarnation = txn.restarts});
      break;
    case DecisionKind::kReject:
      txn.start_rejections += 1;
      stats_.RecordStartRejection();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kAdmissionRejected,
                     .txn = id,
                     .incarnation = txn.restarts});
      break;
    case DecisionKind::kAbortRestart:
      WTPG_CHECK(false) << "startup cannot abort-restart";
      break;
  }
  return decision.kind;
}

void Machine::RequestLock(TxnId id) {
  if (std::exchange(SlotOf(id).pending_decision, true)) return;
  Transaction& txn = GetTxn(id);
  const int step = txn.current_step();
  trace_.set_now(sim_.Now());
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kLockRequest,
                 .txn = id,
                 .incarnation = txn.restarts,
                 .file = txn.step(step).file,
                 .step = step,
                 .mode = txn.RequestModeAt(step)});
  const SimTime cost = scheduler_->LockDecisionCost(txn, step);
  cn_.SubmitWork(cost, [this, id] { OnLockDecision(id); });
}

void Machine::OnLockDecision(TxnId id) {
  SlotOf(id).pending_decision = false;
  Transaction& txn = GetTxn(id);
  scheduler_->OnClock(sim_.Now());
  trace_.set_now(sim_.Now());
  const int step = txn.current_step();
  Decision decision;
  // Head-of-line fast path: for schedulers whose DecideLock blocks exactly
  // when the lock-table test fails (traits().pure_lock_block), a decision
  // whose lock is still held in a conflicting mode at decision time is
  // provably kBlock — re-park without re-invoking the scheduler. The
  // LockDecisionCost was already charged at request time and the trace /
  // stats below are the machine's, so the run is byte-identical; only the
  // host-side re-evaluation disappears (the tail of a WakeFileWaiters storm
  // whose head re-took the lock).
  if (scheduler_->traits().pure_lock_block &&
      !scheduler_->lock_table().CanGrant(txn.step(step).file, id,
                                         txn.RequestModeAt(step))) {
    ++block_shortcuts_;
    decision = Decision{DecisionKind::kBlock, txn.step(step).file};
  } else {
    decision = scheduler_->OnLockRequest(txn, step);
  }
  switch (decision.kind) {
    case DecisionKind::kGrant:
      DispatchStep(id);
      // A grant determines new precedence orders, which can unblock delayed
      // requests (their E() values and consistency tests change).
      if (scheduler_->traits().retry_delayed_on_grant) RetryDelayed();
      break;
    case DecisionKind::kBlock:
      txn.blocked_count += 1;
      stats_.RecordBlocked();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kLockBlocked,
                     .txn = id,
                     .incarnation = txn.restarts,
                     .file = decision.file,
                     .step = step});
      ParkBlocked(id, decision.file);
      break;
    case DecisionKind::kDelay:
      txn.delayed_count += 1;
      stats_.RecordDelayed();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kLockDelayed,
                     .txn = id,
                     .incarnation = txn.restarts,
                     .file = txn.step(step).file,
                     .step = step});
      ParkDelayed(id);
      break;
    case DecisionKind::kAbortRestart: {
      // Deadlock victim (2PL): all work of this incarnation is wasted; the
      // transaction restarts from scratch after the restart delay.
      stats_.RecordRestart();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kAbort,
                     .txn = id,
                     .incarnation = txn.restarts,
                     .file = txn.step(step).file,
                     .step = step,
                     .arg = static_cast<int32_t>(
                         AbortReason::kAbortDeadlockVictim)});
      const std::vector<FileId> released = scheduler_->OnAbort(txn);
      txn.ResetForRestart();
      trace_.Record({.time = sim_.Now(),
                     .type = TraceEventType::kRestartScheduled,
                     .txn = id,
                     .incarnation = txn.restarts,
                     .value = config_.run.restart_delay_ms / 1000.0});
      sim_.ScheduleAfter(MsToTime(config_.run.restart_delay_ms), [this, id] {
        RequestStartup(id);
      });
      WakeAfterRelease(released);
      break;
    }
    case DecisionKind::kReject:
      WTPG_CHECK(false) << "lock requests cannot be rejected";
      break;
  }
}

// --- Execution ---

void Machine::BeginStep(TxnId id) {
  Transaction& txn = GetTxn(id);
  if (txn.AllStepsDone()) {
    RequestCommit(id);
    return;
  }
  const int step = txn.current_step();
  const StepSpec& spec = txn.step(step);
  if (txn.NeedsLockAt(step) &&
      !scheduler_->lock_table().HoldsSufficient(spec.file, id,
                                                txn.RequestModeAt(step))) {
    RequestLock(id);
  } else {
    DispatchStep(id);
  }
}

void Machine::DispatchStep(TxnId id) {
  Transaction& txn = GetTxn(id);
  txn.set_state(Transaction::State::kExecuting);
  trace_.set_now(sim_.Now());
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kStepDispatch,
                 .txn = id,
                 .incarnation = txn.restarts,
                 .file = txn.step(txn.current_step()).file,
                 .step = txn.current_step()});
  // CN sends the transaction to the file's home node. The incarnation guard
  // drops the message if a fault abort restarted the transaction while it
  // was in flight (a no-op without faults: nothing else aborts mid-message).
  const int32_t inc = txn.restarts;
  cn_.SubmitMessage([this, id, inc] {
    const Transaction* t = SlotOf(id).txn.get();
    if (t == nullptr || t->restarts != inc) return;
    StartCohorts(id);
  });
}

void Machine::StartCohorts(TxnId id) {
  Transaction& txn = GetTxn(id);
  const int step = txn.current_step();
  const StepSpec& spec = txn.step(step);
  trace_.set_now(sim_.Now());
  // A scan cannot run against a crashed partition; the transaction aborts
  // exactly as if the node failed under it.
  for (int c = 0; c < placement_.dd(); ++c) {
    if (!dpns_[static_cast<size_t>(placement_.NodeFor(spec.file, c))]->up()) {
      FaultCounter("fault.crash_victims") += 1;
      FaultAbort(id, kAbortNodeCrash);
      return;
    }
  }
  // Log the data access. Reads take effect as the scan runs. Writes do too
  // under locking schedulers (in-place, protected by the X lock); under OPT
  // they go to private copies and are logged at commit instead.
  if (spec.access == LockMode::kShared || !scheduler_->traits().defers_writes) {
    log_.RecordAccess(id, txn.restarts, spec.file, spec.access, sim_.Now());
    trace_.Record({.time = sim_.Now(),
                   .type = TraceEventType::kDataAccess,
                   .txn = id,
                   .incarnation = txn.restarts,
                   .file = spec.file,
                   .step = step,
                   .mode = spec.access});
  }
  const int dd = placement_.dd();
  const double cohort_objects = spec.actual_cost / dd;
  const double quantum_objects =
      config_.machine.quantum_objects > 0.0 ? config_.machine.quantum_objects : 1.0 / dd;
  SlotOf(id).cohorts_remaining = dd;
  for (int c = 0; c < dd; ++c) {
    const NodeId node = placement_.NodeFor(spec.file, c);
    Dpn& dpn = *dpns_[static_cast<size_t>(node)];
    trace_.Record({.time = sim_.Now(),
                   .type = TraceEventType::kScanStart,
                   .txn = id,
                   .incarnation = txn.restarts,
                   .file = spec.file,
                   .node = node,
                   .step = step,
                   .value = cohort_objects});
    const RoundRobinServer::JobId job = dpn.SubmitCohort(
        cohort_objects, quantum_objects,
        [this, id, node] { OnCohortDone(id, node); });
    if (faults_enabled_) SlotOf(id).cohort_jobs.emplace_back(node, job);
  }
}

void Machine::OnCohortDone(TxnId id, NodeId node) {
  trace_.set_now(sim_.Now());
  if (trace_.enabled()) {
    const Transaction& txn = GetTxn(id);
    trace_.Record({.time = sim_.Now(),
                   .type = TraceEventType::kScanEnd,
                   .txn = id,
                   .incarnation = txn.restarts,
                   .node = node,
                   .step = txn.current_step()});
  }
  std::erase_if(SlotOf(id).cohort_jobs,
                [node](const auto& job) { return job.first == node; });
  int& cohorts = SlotOf(id).cohorts_remaining;
  WTPG_CHECK_GT(cohorts, 0);
  if (--cohorts > 0) return;
  // All cohorts joined at the home node; the transaction returns to CN.
  // Guarded like the dispatch message: a fault abort between the join and
  // the CN receive invalidates this incarnation's return trip.
  const int32_t inc = GetTxn(id).restarts;
  cn_.SubmitMessage([this, id, inc] {
    const Transaction* t = SlotOf(id).txn.get();
    if (t == nullptr || t->restarts != inc) return;
    OnStepReturned(id);
  });
}

void Machine::OnStepReturned(TxnId id) {
  Transaction& txn = GetTxn(id);
  const int step = txn.current_step();
  trace_.set_now(sim_.Now());
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kStepReturn,
                 .txn = id,
                 .incarnation = txn.restarts,
                 .file = txn.step(step).file,
                 .step = step});
  txn.AdvanceStep();
  scheduler_->OnStepCompleted(txn, step);
  BeginStep(id);
}

// --- Commit ---

void Machine::RequestCommit(TxnId id) {
  Transaction& txn = GetTxn(id);
  txn.set_state(Transaction::State::kCommitting);
  cn_.SubmitCommit([this, id] { OnCommitDone(id); });
}

void Machine::OnCommitDone(TxnId id) {
  Transaction& txn = GetTxn(id);
  scheduler_->OnClock(sim_.Now());
  trace_.set_now(sim_.Now());
  if (!scheduler_->ValidateAtCommit(txn)) {
    // OPT certification failure: abort and restart from scratch after the
    // configured delay.
    stats_.RecordRestart();
    trace_.Record({.time = sim_.Now(),
                   .type = TraceEventType::kAbort,
                   .txn = id,
                   .incarnation = txn.restarts,
                   .arg = static_cast<int32_t>(
                       AbortReason::kAbortValidationFailure)});
    scheduler_->OnAbort(txn);
    txn.ResetForRestart();
    trace_.Record({.time = sim_.Now(),
                   .type = TraceEventType::kRestartScheduled,
                   .txn = id,
                   .incarnation = txn.restarts,
                   .value = config_.run.restart_delay_ms / 1000.0});
    sim_.ScheduleAfter(MsToTime(config_.run.restart_delay_ms),
                       [this, id] { RequestStartup(id); });
    return;
  }
  if (scheduler_->traits().defers_writes) {
    // Deferred updates are installed now.
    for (const StepSpec& spec : txn.steps()) {
      if (spec.access == LockMode::kExclusive) {
        log_.RecordAccess(id, txn.restarts, spec.file, spec.access,
                          sim_.Now());
        trace_.Record({.time = sim_.Now(),
                       .type = TraceEventType::kDataAccess,
                       .txn = id,
                       .incarnation = txn.restarts,
                       .file = spec.file,
                       .mode = spec.access});
      }
    }
  }
  log_.RecordCommit(id, txn.restarts);
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kCommit,
                 .txn = id,
                 .incarnation = txn.restarts});
  const std::vector<FileId> released = scheduler_->OnCommit(txn);
  txn.set_state(Transaction::State::kCommitted);
  txn.completion_time = sim_.Now();
  stats_.RecordCompletion(txn, sim_.Now());
  SlotOf(id).txn.reset();
  --in_flight_;

  WakeAfterRelease(released);
}

// --- Faults ---

uint64_t& Machine::FaultCounter(const char* name) {
  return stats_.counters().Counter(name);
}

void Machine::StartFaultSources() {
  const FaultConfig& fault = config_.fault;
  Rng root(config_.run.seed ^ kFaultSeedSalt);
  // Fork a fixed set of child streams, in a fixed order, so each fault
  // source is independent of the others' configuration: turning stragglers
  // on must not move the crash schedule. Per-node streams keep node k's
  // schedule independent of the draws of the other nodes.
  Rng crash_rng = root.Fork();
  Rng straggler_rng = root.Fork();
  abort_rng_ = root.Fork();
  const int num_nodes = config_.machine.num_nodes;
  for (NodeId node = 0; node < num_nodes; ++node) {
    crash_rngs_.push_back(crash_rng.Fork());
    straggler_rngs_.push_back(straggler_rng.Fork());
  }
  // Fault timing never depends on what the workload does, only on the seed.
  if (fault.dpn_mttf_ms > 0.0) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      ScheduleFault(crash_rngs_[static_cast<size_t>(node)].Exponential(
                        fault.dpn_mttf_ms),
                    [this, node] { OnDpnCrash(node); });
    }
  }
  if (fault.straggler_mtbf_ms > 0.0) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      ScheduleFault(straggler_rngs_[static_cast<size_t>(node)].Exponential(
                        fault.straggler_mtbf_ms),
                    [this, node] { OnSlowdownStart(node); });
    }
  }
  if (fault.abort_rate_per_s > 0.0) {
    ScheduleFault(abort_rng_.Exponential(1000.0 / fault.abort_rate_per_s),
                  [this] { OnInjectAbort(); });
  }
}

void Machine::ScheduleFault(double delay_ms, EventQueue::Callback cb) {
  // The draw is compared with the time left before it becomes ticks: a draw
  // beyond the clock range would overflow MsToTime. The 1 ms margin leaves
  // every draw near the horizon to the exact comparison in ticks.
  const SimTime now = sim_.Now();
  if (!(delay_ms < TimeToMs(config_.horizon() - now) + 1.0)) return;
  const SimTime at = now + MsToTime(delay_ms);
  if (at < config_.horizon()) sim_.ScheduleAt(at, std::move(cb));
}

// Each handler schedules its source's next event before it acts, so the
// next event precedes whatever the action schedules for the same instant.
// A node's crashes and repairs come from one source and alternate.
void Machine::OnDpnCrash(NodeId node) {
  trace_.set_now(sim_.Now());
  ScheduleFault(crash_rngs_[static_cast<size_t>(node)].Exponential(
                    config_.fault.dpn_mttr_ms),
                [this, node] { OnDpnRepair(node); });
  Dpn& dpn = *dpns_[static_cast<size_t>(node)];
  FaultCounter("fault.crashes") += 1;
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kDpnCrash,
                 .node = node});
  dpn.Crash();
  // Every transaction with a cohort resident on the node loses its whole
  // incarnation — mid-scan state on a dead node is unrecoverable. Victims
  // abort in id order: active() is ordered by id.
  std::vector<TxnId> victims;
  for (const auto& [id, txn] : scheduler_->active()) {
    (void)txn;
    const auto& jobs = SlotOf(id).cohort_jobs;
    if (std::any_of(jobs.begin(), jobs.end(),
                    [node](const auto& job) { return job.first == node; })) {
      victims.push_back(id);
    }
  }
  for (TxnId id : victims) {
    FaultCounter("fault.crash_victims") += 1;
    FaultAbort(id, kAbortNodeCrash);
  }
}

void Machine::OnDpnRepair(NodeId node) {
  trace_.set_now(sim_.Now());
  ScheduleFault(crash_rngs_[static_cast<size_t>(node)].Exponential(
                    config_.fault.dpn_mttf_ms),
                [this, node] { OnDpnCrash(node); });
  dpns_[static_cast<size_t>(node)]->Repair();
  FaultCounter("fault.repairs") += 1;
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kDpnRepair,
                 .node = node});
}

void Machine::OnSlowdownStart(NodeId node) {
  trace_.set_now(sim_.Now());
  ScheduleFault(config_.fault.straggler_duration_ms,
                [this, node] { OnSlowdownEnd(node); });
  Dpn& dpn = *dpns_[static_cast<size_t>(node)];
  // A window opening on a crashed node is lost: the node comes back from
  // repair at full speed.
  if (!dpn.up()) return;
  dpn.set_slowdown(config_.fault.straggler_factor);
  FaultCounter("fault.slowdowns") += 1;
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kDpnSlowdown,
                 .node = node,
                 .arg = 1,
                 .value = config_.fault.straggler_factor});
}

void Machine::OnSlowdownEnd(NodeId node) {
  trace_.set_now(sim_.Now());
  // Windows never overlap: the next gap starts when this window closes.
  ScheduleFault(straggler_rngs_[static_cast<size_t>(node)].Exponential(
                    config_.fault.straggler_mtbf_ms),
                [this, node] { OnSlowdownStart(node); });
  Dpn& dpn = *dpns_[static_cast<size_t>(node)];
  if (!dpn.up() || dpn.slowdown() == 1.0) return;
  dpn.set_slowdown(1.0);
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kDpnSlowdown,
                 .node = node,
                 .arg = 0,
                 .value = 1.0});
}

void Machine::OnInjectAbort() {
  trace_.set_now(sim_.Now());
  // The victim pick comes off the stream before the next gap.
  const double pick = abort_rng_.NextDouble();
  ScheduleFault(abort_rng_.Exponential(1000.0 / config_.fault.abort_rate_per_s),
                [this] { OnInjectAbort(); });
  // Eligible victims: admitted transactions that are not mid-decision (a
  // CN decision job holds a raw reference to the incarnation) and not past
  // the commit point. The active() map is ordered by id, so `pick` indexes
  // the same victim on every replay.
  std::vector<TxnId> eligible;
  for (const auto& [id, txn] : scheduler_->active()) {
    if (txn->state() == Transaction::State::kCommitting) continue;
    if (SlotOf(id).pending_decision) continue;
    eligible.push_back(id);
  }
  if (eligible.empty()) return;
  size_t index = static_cast<size_t>(pick * static_cast<double>(eligible.size()));
  if (index >= eligible.size()) index = eligible.size() - 1;
  FaultCounter("fault.injected_aborts") += 1;
  FaultAbort(eligible[index], kAbortInjected);
}

void Machine::FaultAbort(TxnId id, AbortReason reason) {
  Transaction& txn = GetTxn(id);
  // Cohorts still running on healthy nodes are canceled; their completion
  // callbacks never fire and their remaining work leaves the backlog.
  TxnSlot& slot = SlotOf(id);
  for (const auto& [node, job] : slot.cohort_jobs) {
    dpns_[static_cast<size_t>(node)]->CancelCohort(job);
  }
  slot.cohort_jobs.clear();
  slot.cohorts_remaining = 0;
  Unpark(id);
  stats_.RecordRestart();
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kAbort,
                 .txn = id,
                 .incarnation = txn.restarts,
                 .arg = static_cast<int32_t>(reason)});
  const std::vector<FileId> released = scheduler_->OnAbort(txn);
  txn.ResetForRestart();
  // Exponential backoff doubling per restart, capped, with multiplicative
  // jitter from the replica's fault stream so colliding victims do not
  // retry in lockstep.
  const FaultConfig& fault = config_.fault;
  double delay_ms =
      fault.backoff_base_ms * std::pow(2.0, std::max(0, txn.restarts - 1));
  delay_ms = std::min(delay_ms, fault.backoff_max_ms);
  if (fault.backoff_jitter > 0.0) {
    delay_ms *= fault_rng_.UniformReal(1.0 - fault.backoff_jitter,
                                       1.0 + fault.backoff_jitter);
  }
  FaultCounter("fault.backoff_restarts") += 1;
  trace_.Record({.time = sim_.Now(),
                 .type = TraceEventType::kFaultBackoff,
                 .txn = id,
                 .incarnation = txn.restarts,
                 .value = delay_ms / 1000.0});
  sim_.ScheduleAfter(MsToTime(delay_ms), [this, id] { RequestStartup(id); });
  WakeAfterRelease(released);
}

void Machine::Unpark(TxnId id) {
  auto drop = [id](std::deque<TxnId>* queue) {
    for (auto it = queue->begin(); it != queue->end(); ++it) {
      if (*it == id) {
        queue->erase(it);
        return true;
      }
    }
    return false;
  };
  if (drop(&delayed_)) return;
  for (auto it = file_waiters_.begin(); it != file_waiters_.end(); ++it) {
    if (drop(&it->second)) {
      if (it->second.empty()) file_waiters_.erase(it);
      return;
    }
  }
}

// --- Parked-request retry ---

void Machine::ParkAdmission(TxnId id) {
  Transaction& txn = GetTxn(id);
  txn.set_state(Transaction::State::kWaitingStart);
  admission_pool_.PushBack(txn);
  EnsureFallbackTimer();
}

void Machine::ParkBlocked(TxnId id, FileId file) {
  WTPG_CHECK_NE(file, kInvalidFile);
  GetTxn(id).set_state(Transaction::State::kWaitingLock);
  file_waiters_[file].push_back(id);
}

void Machine::ParkDelayed(TxnId id) {
  GetTxn(id).set_state(Transaction::State::kWaitingLock);
  delayed_.push_back(id);
  EnsureFallbackTimer();
}

void Machine::WakeAfterRelease(const std::vector<FileId>& released) {
  for (FileId file : released) WakeFileWaiters(file);
  RetryDelayed();
  RetryAdmissions();
}

void Machine::WakeFileWaiters(FileId file) {
  auto it = file_waiters_.find(file);
  if (it == file_waiters_.end()) return;
  std::deque<TxnId> waiters = std::move(it->second);
  file_waiters_.erase(it);
  for (TxnId id : waiters) {
    ++decision_retries_;
    RequestLock(id);
  }
}

void Machine::RetryDelayed() {
  if (delayed_.empty()) return;
  std::deque<TxnId> waiters = std::move(delayed_);
  delayed_.clear();
  for (TxnId id : waiters) {
    ++decision_retries_;
    RequestLock(id);
  }
}

TxnId Machine::FirstUnswept() const {
  return sweeps_.empty() ? admission_pool_.front()
                         : admission_pool_.next(sweeps_.back().last);
}

void Machine::RetryAdmissions() {
  const size_t parked = admission_pool_.size() - swept_;
  if (parked == 0) return;
  // Each parked startup is retested at most once per wake.
  const SimTime cost = scheduler_->StartupDecisionCost();
  if (cost == 0) {
    // One sweep over every parked member, at the CN's next free instant.
    decision_retries_ += parked;
    sweeps_.push_back(Sweep{parked, admission_pool_.back()});
    swept_ += parked;
    cn_.SubmitSteps(parked, [this](size_t steps) { OnSweepSteps(steps); });
    return;
  }
  // Costed retests (GOW's) are jobs of their own, capped at
  // admission_retry_limit per wake; failures re-park at the back, rotating
  // the pool across wakes.
  const int limit = config_.run.admission_retry_limit;
  size_t budget =
      limit > 0 ? std::min(parked, static_cast<size_t>(limit)) : parked;
  for (; budget > 0; --budget) {
    const TxnId id = admission_pool_.front();
    admission_pool_.Erase(id);
    ++decision_retries_;
    SlotOf(id).pending_decision = true;
    cn_.SubmitWork(cost, [this, id] { OnStartupDecision(id); });
  }
  if (!admission_pool_.empty()) EnsureFallbackTimer();
}

void Machine::OnSweepSteps(size_t steps) {
  Sweep& sweep = sweeps_.front();
  if (steps == 1) {
    RetestFront();
  } else {
    // The server hands over every step but the last in one callback.
    WTPG_CHECK_EQ(steps + 1, sweep.remaining);
    RetestBatch(sweep.last, steps);
  }
  sweep.remaining -= steps;
  swept_ -= steps;
  if (sweep.remaining == 0) sweeps_.pop_front();
}

void Machine::RetestFront() {
  const TxnId id = admission_pool_.front();
  const DecisionKind kind = DecideStartup(id);
  if (kind == DecisionKind::kGrant) {
    admission_pool_.Erase(id);
    return;
  }
  if (kind != DecisionKind::kReject) NoteRefused(id);
  admission_pool_.MoveFrontToBack();
  EnsureFallbackTimer();
}

// The batch's members are the pool's front ones, ahead of `last`, and they
// are decided in pool order. Nothing eases admission during the batch (only
// CN jobs and fault events do, and neither runs inside it), so once a class
// is refused by kBlock or kDelay every later member of it in the batch is
// refused too, and counted as its own decision would count it: by the
// gate, if the gate refuses it at its turn, or else by DecideStartup's
// test. A class refused since the scheduler's admission epoch last changed
// is refused from the start. Once every class with members left in the
// batch is refused, the rest of the batch is counted class by class, unless
// tracing wants a record per member.
void Machine::RetestBatch(TxnId last, size_t steps) {
  using Class = AdmissionPool::Class;
  const uint64_t batch = ++batches_;
  const uint64_t epoch = scheduler_->admission_epoch();
  const auto stamp = [batch](Class& c) {
    if (c.batch == batch) return;
    c.batch = batch;
    c.behind = 0;
  };
  for (TxnId id = last; id != kInvalidTxn; id = admission_pool_.next(id)) {
    Class& c = admission_pool_.ClassOf(id);
    stamp(c);
    ++c.behind;
  }
  // Classes that may still admit a member of the batch.
  size_t open = 0;
  admission_pool_.ForEachClass([&](Class& c) {
    stamp(c);
    c.ahead = c.members - c.behind;
    c.refused = c.refused_epoch == epoch;
    if (!c.refused && c.ahead > 0) ++open;
  });
  const bool tracing = trace_.enabled();
  uint64_t gated = 0;
  uint64_t refused = 0;
  size_t passed = 0;
  TxnId id = admission_pool_.front();
  while (id != last && (open > 0 || tracing)) {
    const TxnId next = admission_pool_.next(id);
    Class& c = admission_pool_.ClassOf(id);
    --c.ahead;
    ++passed;
    if (c.refused) {
      ++(scheduler_->Gates(c.priority) ? gated : refused);
      if (tracing) {
        trace_.Record({.time = sim_.Now(),
                       .type = TraceEventType::kAdmissionDelayed,
                       .txn = id,
                       .incarnation = GetTxn(id).restarts});
      }
    } else {
      const DecisionKind kind = DecideStartup(id);
      if (kind == DecisionKind::kGrant) {
        admission_pool_.Erase(id);
      } else if (kind != DecisionKind::kReject) {
        c.refused = true;
        c.refused_epoch = epoch;
      }
      if (c.refused || c.ahead == 0) --open;
    }
    id = next;
  }
  if (id != last) {
    // Every class left in the batch is refused, and no admission follows.
    admission_pool_.ForEachClass([&](Class& c) {
      (scheduler_->Gates(c.priority) ? gated : refused) += c.ahead;
      passed += c.ahead;
    });
  }
  WTPG_CHECK_EQ(passed, steps);
  WTPG_CHECK_EQ(scheduler_->admission_epoch(), epoch)
      << "an admission eased startup refusals";
  scheduler_->RepeatStartupRefusals(gated, refused);
  if (admission_pool_.front() == last) return;
  // The refused members re-park at the back, in their order.
  admission_pool_.RotateTo(last);
  EnsureFallbackTimer();
}

// --- Telemetry sampling ---

void Machine::ScheduleTelemetrySample() {
  if (telemetry_ == nullptr) return;
  const SimTime period = telemetry_->period();
  // Samples land at exact multiples of the period, the last one at the
  // horizon inclusive.
  if (sim_.Now() + period > config_.horizon()) return;
  sim_.ScheduleAfter(period, [this] { TakeTelemetrySample(); });
}

void Machine::TakeTelemetrySample() {
  telemetry_->Sample(sim_.Now());
  ScheduleTelemetrySample();
}

void Machine::EnsureFallbackTimer() {
  if (fallback_timer_active_ || config_.run.retry_fallback_ms <= 0.0) return;
  fallback_timer_active_ = true;
  sim_.ScheduleAfter(MsToTime(config_.run.retry_fallback_ms), [this] {
    fallback_timer_active_ = false;
    const bool had_parked =
        !delayed_.empty() || admission_pool_.size() > swept_;
    if (had_parked) {
      RetryDelayed();
      RetryAdmissions();
      EnsureFallbackTimer();
    }
  });
}

}  // namespace wtpgsched
