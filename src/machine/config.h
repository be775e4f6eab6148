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
  // keep their defaults) and rejects unknown keys.
  std::string ToJson() const;
  static StatusOr<SimConfig> FromJson(const std::string& json);
  // Reads and parses a config file (the --config flag on the tools).
  static StatusOr<SimConfig> FromJsonFile(const std::string& path);

  SimTime horizon() const { return MsToTime(run.horizon_ms); }
  SimTime warmup() const { return MsToTime(run.warmup_ms); }
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_CONFIG_H_
