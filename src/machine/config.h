#ifndef WTPG_SCHED_MACHINE_CONFIG_H_
#define WTPG_SCHED_MACHINE_CONFIG_H_

#include <cstdint>
#include <limits>
#include <string>

#include "fault/fault_config.h"
#include "sim/time.h"
#include "util/status.h"

namespace wtpgsched {

// Which concurrency-control scheduler drives the run (paper Section 4.2).
enum class SchedulerKind {
  kNodc,   // No data contention (upper bound).
  kAsl,    // Atomic static locking.
  kC2pl,   // Cautious two-phase locking (+M via mpl).
  kOpt,    // Optimistic with backward validation.
  kGow,    // Globally-optimized WTPG.
  kLow,    // Locally-optimized WTPG, K-conflict.
  kLowLb,  // Extension: LOW with load balancing.
  kTwoPl,  // Traditional strict 2PL with deadlock detection (baseline).
};

const char* SchedulerKindName(SchedulerKind kind);

// CLI / JSON spelling of a scheduler kind ("nodc", "low-lb", "2pl", ...).
const char* SchedulerKindFlagName(SchedulerKind kind);
// Parses a CLI / JSON spelling; returns false on unknown names.
bool ParseSchedulerKind(const std::string& name, SchedulerKind* out);

// Simulation parameters, grouped into named sections (machine / costs /
// workload / run / fault) that serialize to one JSON artifact
// (SimConfig::ToJson / FromJson, --config on the tools). Defaults
// reproduce Table 1 of the paper.

// --- The shared-nothing machine (paper Fig. 1) ---
struct MachineSection {
  int num_nodes = 8;    // Data-processing nodes.
  int num_files = 16;   // Locking granules.
  int dd = 1;           // Degree of declustering (uniform over files).
  // Multiprogramming level: admission refused while `mpl` transactions are
  // active. Table 1 default is infinite; C2PL+M tunes it.
  int mpl = std::numeric_limits<int>::max();
  // Round-robin service quantum at the DPNs, in objects. 0 selects the
  // paper's rule of 1/DD objects per turn (Section 4.1, item 4).
  double quantum_objects = 0.0;
  // Priority-aware admission control: while this many low-priority
  // (priority <= 0) transactions are active, further low-priority startups
  // are delayed — every scheduler inherits the gate (see AdmissionControl
  // in sched/scheduler.h). 0 (default) disables it.
  int batch_mpl = 0;
};

// --- CPU / scan costs (milliseconds; Table 1) ---
struct CostSection {
  double obj_time_ms = 1000.0;  // Scan time of 1 object at a DPN at DD=1.
  double msg_time_ms = 2.0;     // CN CPU per message send/receive.
  double sot_time_ms = 2.0;     // CN CPU per transaction startup.
  double cot_time_ms = 7.0;     // CN CPU per commit (2PC coordination).
  double dd_time_ms = 1.0;      // C2PL deadlock prediction per decision.
  double kwtpg_time_ms = 10.0;  // LOW: one E() evaluation.
  double chain_time_ms = 30.0;  // GOW: optimized order computation.
  double top_time_ms = 5.0;     // GOW: chain-form test.
};

// --- Workload source ---
struct WorkloadSection {
  double arrival_rate_tps = 1.0;
  double error_sigma = 0.0;  // Experiment 3 declaration-error stddev.
  // Stop generating arrivals after this many transactions (0 = unlimited).
  uint64_t max_arrivals = 0;
  // Zipf file-access skew applied to every pattern variable (0 = exact
  // uniform draws, byte-identical to the pre-Zipf generator). Applied by
  // the Machine's pattern/mix constructors via Pattern::WithZipf.
  double zipf_theta = 0.0;
};

// --- Run control & observability ---
struct RunSection {
  double horizon_ms = 2'000'000;  // Paper: 2,000,000 clocks of 1 ms.
  double warmup_ms = 0;           // Completions before this are excluded.
  // Delayed requests are retried on every commit; this fallback timer
  // guarantees liveness if no commit is pending ("submitted ... after some
  // delay"). 0 disables it.
  double retry_fallback_ms = 1000.0;
  // Of the parked startups whose retest costs CN CPU (StartupDecisionCost
  // > 0: GOW's chain-form test), at most this many are retried per wake
  // event; failures requeue at the back, so the pool is covered round-robin.
  // Without the cap, a supersaturated waiting pool retested on every commit
  // starves the control node (see DESIGN.md). 0 = unlimited.
  int admission_retry_limit = 16;
  // OPT: a transaction aborted at validation restarts after this delay
  // (immediate restarts re-conflict and overload the data nodes; classic
  // CC-performance models restart after a think-time, e.g. Agrawal et al.).
  double restart_delay_ms = 5000.0;
  // Run-health telemetry (src/telemetry/): when > 0, every registered gauge
  // is sampled each telemetry_sample_ms of sim time into a bounded columnar
  // ring of telemetry_capacity rows, the regime detectors run online, and
  // health.* counters appear in RunStats. Off by default: a disabled run
  // constructs no telemetry at all and stays byte-identical to the goldens.
  double telemetry_sample_ms = 0.0;
  uint64_t telemetry_capacity = 1 << 16;
  // Structured event tracing (src/trace/): when true, the machine records
  // typed lifecycle + scheduler-decision events into a ring buffer of
  // trace_capacity events (most recent kept; see Machine::trace()). Costs
  // nothing when false — every instrumentation site is behind one branch.
  bool trace_enabled = false;
  uint64_t trace_capacity = 1 << 20;
  // Tail-latency observability (see TailOptions in metrics/stats.h). Both
  // default off so default-config JSON stays byte-identical to the goldens.
  // tail_metrics surfaces p50/p99 + per-class percentiles in RunStats /
  // AggregateResult JSON; tail_sketch replaces exact sample retention with
  // the O(1)-state P² sketch for long-horizon runs.
  bool tail_metrics = false;
  bool tail_sketch = false;
  uint64_t seed = 1;
};

struct SimConfig {
  MachineSection machine;
  CostSection costs;
  WorkloadSection workload;
  RunSection run;
  FaultConfig fault;

  // --- Scheduler selection (top-level; not a section) ---
  SchedulerKind scheduler = SchedulerKind::kLow;
  int low_k = 2;                    // LOW's K (paper uses K=2).
  bool low_charge_per_eval = true;  // See DESIGN.md substitution notes.
  double low_lb_weight = 1.0;       // LOW-LB load-penalty weight.
  // OPT validation scope: when true (default) a committing transaction
  // aborts if *any* file it accessed was overwritten by a concurrent
  // commit (write-write counts); when false, only reads are validated
  // (pure Kung-Robinson). See DESIGN.md — the paper's Experiment-2 numbers
  // are incompatible with read-only validation.
  bool opt_validate_writes = true;

  Status Validate() const;

  // One JSON object with a nested object per section — the reproducibility
  // artifact behind --config. FromJson accepts partial files (absent keys
  // keep their defaults) and rejects unknown keys. Doubles are written in
  // their shortest form that reads back exactly.
  std::string ToJson() const;
  static StatusOr<SimConfig> FromJson(const std::string& json);
  // Reads and parses a config file (the --config flag on the tools).
  static StatusOr<SimConfig> FromJsonFile(const std::string& path);

  SimTime horizon() const { return MsToTime(run.horizon_ms); }
  SimTime warmup() const { return MsToTime(run.warmup_ms); }
};

// The one list of SimConfig's fields, in the order of its JSON form. Calls
// visit(section, key, flag, field) for each field of `c` (a SimConfig or a
// const one): `section` is the JSON object holding the field ("" for the
// top-level scheduler fields), `key` its JSON key, and `flag` the tools'
// flag that sets the field to its value, "" where none does (wtpg_sim
// applies --mpl, --tail, --tail-sketch and the --trace-* / --telemetry-*
// flags itself: each means more than a plain value). The walk stops at,
// and returns false after, the first visit that returns false. ToJson,
// FromJson, Validate's finiteness checks and LoadConfig
// (util/common_flags.h) all read their fields from here.
template <typename Config, typename Visit>
bool ForEachField(Config& c, Visit&& visit) {
  auto& m = c.machine;
  auto& k = c.costs;
  auto& w = c.workload;
  auto& r = c.run;
  auto& f = c.fault;
  return visit("machine", "num_nodes", "num-nodes", m.num_nodes) &&
         visit("machine", "num_files", "num-files", m.num_files) &&
         visit("machine", "dd", "dd", m.dd) &&
         visit("machine", "mpl", "", m.mpl) &&
         visit("machine", "quantum_objects", "", m.quantum_objects) &&
         visit("machine", "batch_mpl", "batch-mpl", m.batch_mpl) &&
         visit("costs", "obj_time_ms", "", k.obj_time_ms) &&
         visit("costs", "msg_time_ms", "", k.msg_time_ms) &&
         visit("costs", "sot_time_ms", "", k.sot_time_ms) &&
         visit("costs", "cot_time_ms", "", k.cot_time_ms) &&
         visit("costs", "dd_time_ms", "", k.dd_time_ms) &&
         visit("costs", "kwtpg_time_ms", "", k.kwtpg_time_ms) &&
         visit("costs", "chain_time_ms", "", k.chain_time_ms) &&
         visit("costs", "top_time_ms", "", k.top_time_ms) &&
         visit("workload", "arrival_rate_tps", "rate", w.arrival_rate_tps) &&
         visit("workload", "error_sigma", "sigma", w.error_sigma) &&
         visit("workload", "max_arrivals", "max-arrivals", w.max_arrivals) &&
         visit("workload", "zipf_theta", "zipf-theta", w.zipf_theta) &&
         visit("run", "horizon_ms", "horizon-ms", r.horizon_ms) &&
         visit("run", "warmup_ms", "warmup-ms", r.warmup_ms) &&
         visit("run", "retry_fallback_ms", "", r.retry_fallback_ms) &&
         visit("run", "admission_retry_limit", "", r.admission_retry_limit) &&
         visit("run", "restart_delay_ms", "", r.restart_delay_ms) &&
         visit("run", "telemetry_sample_ms", "", r.telemetry_sample_ms) &&
         visit("run", "telemetry_capacity", "", r.telemetry_capacity) &&
         visit("run", "trace_enabled", "", r.trace_enabled) &&
         visit("run", "trace_capacity", "", r.trace_capacity) &&
         visit("run", "tail_metrics", "", r.tail_metrics) &&
         visit("run", "tail_sketch", "", r.tail_sketch) &&
         visit("run", "seed", "seed", r.seed) &&
         visit("fault", "dpn_mttf_ms", "fault-mttf-ms", f.dpn_mttf_ms) &&
         visit("fault", "dpn_mttr_ms", "fault-mttr-ms", f.dpn_mttr_ms) &&
         visit("fault", "straggler_mtbf_ms", "fault-straggler-mtbf-ms",
               f.straggler_mtbf_ms) &&
         visit("fault", "straggler_duration_ms", "fault-straggler-duration-ms",
               f.straggler_duration_ms) &&
         visit("fault", "straggler_factor", "fault-straggler-factor",
               f.straggler_factor) &&
         visit("fault", "abort_rate_per_s", "fault-abort-rate",
               f.abort_rate_per_s) &&
         visit("fault", "backoff_base_ms", "fault-backoff-base-ms",
               f.backoff_base_ms) &&
         visit("fault", "backoff_max_ms", "fault-backoff-max-ms",
               f.backoff_max_ms) &&
         visit("fault", "backoff_jitter", "fault-backoff-jitter",
               f.backoff_jitter) &&
         visit("", "scheduler", "scheduler", c.scheduler) &&
         visit("", "low_k", "low-k", c.low_k) &&
         visit("", "low_charge_per_eval", "", c.low_charge_per_eval) &&
         visit("", "low_lb_weight", "", c.low_lb_weight) &&
         visit("", "opt_validate_writes", "", c.opt_validate_writes);
}

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_CONFIG_H_
