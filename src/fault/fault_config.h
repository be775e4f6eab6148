#ifndef WTPG_SCHED_FAULT_FAULT_CONFIG_H_
#define WTPG_SCHED_FAULT_FAULT_CONFIG_H_

namespace wtpgsched {

// The `fault` section of SimConfig (machine/config.h, whose Validate checks
// it): a declarative description of the node churn a run should suffer.
// All rates default to zero, which starts no fault source — a zero-fault
// run is byte-identical to a build without the fault layer (the
// differential suite asserts this).
//
// Each source draws its events one at a time from its own RNG stream,
// forked from the replica's seed (see Machine::StartFaultSources), so the
// fault schedule never perturbs arrival or pattern draws, and identical
// seeds give bit-identical schedules at any --jobs value.
struct FaultConfig {
  // --- DPN crash / repair ---
  // Mean time to failure per data-processing node, exponential (0 = no
  // crashes). A crashed node fails its in-flight and queued scans: the
  // victim transactions abort (Scheduler::OnAbort) and restart after a
  // backoff; dispatching a step to a crashed node is also fatal to the
  // requesting incarnation.
  double dpn_mttf_ms = 0.0;
  // Mean time to repair, exponential. A repaired node resumes with its
  // placement intact (partitions are not re-homed).
  double dpn_mttr_ms = 60'000.0;

  // --- Straggler windows ---
  // Mean time between slowdown windows per node, exponential (0 = none).
  double straggler_mtbf_ms = 0.0;
  // Fixed window length; windows on one node never overlap (the next
  // inter-window draw starts when the previous window ends).
  double straggler_duration_ms = 30'000.0;
  // Scan service-time multiplier while the window is open (>= 1). Applies
  // to cohorts submitted during the window; cohorts already resident keep
  // their original service demand.
  double straggler_factor = 4.0;

  // --- Spontaneous aborts ---
  // Poisson rate (events per simulated second) of abort injections. Each
  // injection draws a uniform pick from the source's stream that selects
  // one eligible active transaction (deterministic given the simulation
  // state); if no transaction is eligible the injection is a no-op.
  double abort_rate_per_s = 0.0;

  // --- Restart backoff ---
  // A fault-aborted incarnation restarts after
  //   min(backoff_max_ms, backoff_base_ms * 2^(restarts - 1))
  // scaled by a deterministic jitter factor in [1 - j, 1 + j] drawn from
  // the replica's fault RNG stream.
  double backoff_base_ms = 500.0;
  double backoff_max_ms = 60'000.0;
  double backoff_jitter = 0.2;

  // True when any fault source is configured; false means no source starts
  // and the run is byte-identical to a fault-free build.
  bool enabled() const {
    return dpn_mttf_ms > 0.0 || straggler_mtbf_ms > 0.0 ||
           abort_rate_per_s > 0.0;
  }
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_FAULT_FAULT_CONFIG_H_
