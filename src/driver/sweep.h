#ifndef WTPG_SCHED_DRIVER_SWEEP_H_
#define WTPG_SCHED_DRIVER_SWEEP_H_

#include <functional>
#include <vector>

#include "driver/sim_run.h"
#include "machine/config.h"
#include "workload/pattern.h"

namespace wtpgsched {

// All entry points take a `jobs` worker count (0 = DefaultJobs()) and fan
// their independent replicas out through RunReplicas; results are
// bit-identical for any jobs value (see driver/sim_run.h).

// The operating point where a scheduler's mean response time reaches a
// target (the paper reads "throughput at Resp.Time = 70 sec" off the
// response-time curve).
struct OperatingPoint {
  double lambda_tps = 0.0;
  double mean_response_s = 0.0;
  double throughput_tps = 0.0;
  // Seeds behind the reported figures — also on the non-converged bracket
  // paths, which aggregate the same number of seeds as any other probe.
  int num_seeds = 0;
  // False when the target is not bracketed by [lo, hi] (the returned point
  // is then the closer bracket end).
  bool converged = false;
};

// Bisects arrival rate in [lo_tps, hi_tps] until mean response time is
// within `tol_s` of `target_s` (or `iters` halvings elapse), and reports the
// probe closest to the target. Response time is monotone (noisily)
// increasing in arrival rate.
//
// The probes run in batches, `num_seeds` replicas each. The bisection below
// an interval is known before any of its probes returns, so a batch holds
// the complete subtree of the next d levels: 2^d - 1 midpoints, d the
// largest depth whose replicas fit the ResolveJobs(jobs) workers (at least
// 1, at most the iterations left). The first batch holds the two brackets
// plus the levels that fit beside them. The search then walks the serial
// path through the batch and drops the probes off it. Each midpoint is
// computed from the same doubles and each probe runs the same seeds as in a
// one-probe-per-batch search, so the OperatingPoint is bit-identical for
// any jobs; below 3 x num_seeds workers every batch is one level.
OperatingPoint FindRateForResponseTime(const SimConfig& base,
                                       const Pattern& pattern,
                                       double target_s, double lo_tps,
                                       double hi_tps, int num_seeds,
                                       int iters, double tol_s, int jobs = 0);

// Evaluates one batch of the search's probes: the aggregate over the seeds
// at each arrival rate, in input order.
using ProbeRunner = std::function<std::vector<AggregateResult>(
    const std::vector<double>& rates)>;

// FindRateForResponseTime with the batches sized for `workers` and handed
// to `run`, which a test can replace with a fake.
OperatingPoint BisectRateForResponseTime(double target_s, double lo_tps,
                                         double hi_tps, int num_seeds,
                                         int iters, double tol_s, int workers,
                                         const ProbeRunner& run);

struct SweepPoint {
  double lambda_tps = 0.0;
  AggregateResult result;
};

// Runs the simulation at each arrival rate; all rate x seed replicas go
// through one batch.
std::vector<SweepPoint> SweepArrivalRates(const SimConfig& base,
                                          const Pattern& pattern,
                                          const std::vector<double>& rates,
                                          int num_seeds, int jobs = 0);

// C2PL+M: picks the MPL minimizing mean response time at the base arrival
// rate ("the best C2PL to control multi-programming level"). All MPL
// candidates are evaluated in one batch.
struct MplChoice {
  int mpl = 0;
  AggregateResult result;
};

MplChoice TuneMpl(const SimConfig& base, const Pattern& pattern,
                  const std::vector<int>& candidates, int num_seeds,
                  int jobs = 0);

// Default MPL candidate ladder for the tuner.
std::vector<int> DefaultMplCandidates();

// Fault-churn sweep: one data point per DPN mean-time-to-failure value
// (0 = fault-free baseline), with the rest of base.fault kept intact. All
// mttf x seed replicas go through one batch.
struct FaultSweepPoint {
  double mttf_ms = 0.0;
  AggregateResult result;
};

std::vector<FaultSweepPoint> SweepFaultRate(
    const SimConfig& base, const Pattern& pattern,
    const std::vector<double>& mttf_ms_values, int num_seeds, int jobs = 0);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_DRIVER_SWEEP_H_
