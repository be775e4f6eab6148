#ifndef WTPG_SCHED_DRIVER_SIM_RUN_H_
#define WTPG_SCHED_DRIVER_SIM_RUN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "machine/config.h"
#include "metrics/stats.h"
#include "workload/pattern.h"
#include "workload/workload.h"

namespace wtpgsched {

// Runs one simulation with the given configuration and workload pattern.
RunStats RunSimulation(const SimConfig& config, const Pattern& pattern);
// Mixed-workload variant (each replica instantiates its own copy of `mix`).
RunStats RunSimulation(const SimConfig& config,
                       const std::vector<WeightedPattern>& mix);

// --- Parallel replica fan-out ---------------------------------------------
//
// Every experiment is a batch of *independent* replicas — (scheduler, rate /
// MPL / DD, seed) triples — so the harness fans Machine::Run() calls out to
// `jobs` workers (ParallelFor, util/thread_pool.h) and reduces the results in
// submission order.
//
// Determinism contract: for any `jobs` value the output is bit-identical to
// the serial path. Each replica's Machine is fully self-contained (own RNG
// streams, StatsCollector, CounterRegistry, trace recorder), each worker
// writes its RunStats into a slot keyed by submission index, and the
// reduction is a serial left-to-right walk over those slots — floating-point
// summation order, counter registration order, and per-replica seeds
// (config.run.seed + replica index) never depend on the worker count.

// Worker count for batch runs: `jobs` >= 1 is used as-is; 0 (the default
// everywhere) resolves to DefaultJobs().
int ResolveJobs(int jobs);

// WTPG_JOBS environment override when set (>= 1; garbage is reported and
// ignored), otherwise the hardware thread count.
int DefaultJobs();

// Runs one replica per config, `jobs` at a time, and returns their stats in
// input order.
std::vector<RunStats> RunReplicas(const std::vector<SimConfig>& configs,
                                  const Pattern& pattern, int jobs = 0);
std::vector<RunStats> RunReplicas(const std::vector<SimConfig>& configs,
                                  const std::vector<WeightedPattern>& mix,
                                  int jobs = 0);

// Cross-seed aggregate of the figures the experiments report. Seeds are
// config.run.seed, config.run.seed + 1, ... (common random numbers across
// schedulers at equal seeds).
struct AggregateResult {
  double mean_response_s = 0.0;
  double throughput_tps = 0.0;
  double completions = 0.0;
  double restarts = 0.0;
  double blocked = 0.0;
  double delayed = 0.0;
  double start_rejections = 0.0;
  double cn_utilization = 0.0;
  double mean_dpn_utilization = 0.0;
  int num_seeds = 0;

  // Tail-latency aggregate (run.tail_metrics replicas only; gates the extra
  // JSON fields so default-mode output stays byte-identical to the goldens).
  // Percentiles are per-replica percentiles averaged across seeds.
  bool tail_metrics = false;
  double p50_response_s = 0.0;
  double p95_response_s = 0.0;
  double p99_response_s = 0.0;

  // Per-workload-class aggregate, ascending by class index. `completions`
  // is the per-seed average (matching `completions` above); percentiles are
  // averaged over the seeds in which the class completed at least once.
  struct ClassAgg {
    int workload_class = 0;
    double completions = 0.0;
    double mean_response_s = 0.0;
    double p50_response_s = 0.0;
    double p95_response_s = 0.0;
    double p99_response_s = 0.0;

    bool operator==(const ClassAgg&) const = default;
  };
  std::vector<ClassAgg> per_class;

  // Full counter registries of the replicas, summed (not averaged) in
  // submission order — names register in first-appearance order, so this is
  // reproducible for any worker count.
  std::vector<std::pair<std::string, uint64_t>> counters;

  // One-line JSON object with every field (tooling output).
  std::string ToJson() const;

  // Field by field and exact (the jobs=1 vs jobs=N identity checks); ToJson
  // prints doubles to six significant digits.
  bool operator==(const AggregateResult&) const = default;
};

AggregateResult RunAggregate(SimConfig config, const Pattern& pattern,
                             int num_seeds, int jobs = 0);
AggregateResult RunAggregate(SimConfig config,
                             const std::vector<WeightedPattern>& mix,
                             int num_seeds, int jobs = 0);

// Expands each base config into `num_seeds` replicas (seed = base.run.seed + i),
// runs the whole batch through one ParallelFor, and reduces per base.
// Equivalent to calling RunAggregate per base, but a single fan-out keeps all
// cores busy across the entire rate x seed (or MPL x seed) grid.
std::vector<AggregateResult> RunAggregates(const std::vector<SimConfig>& bases,
                                           const Pattern& pattern,
                                           int num_seeds, int jobs = 0);
std::vector<AggregateResult> RunAggregates(
    const std::vector<SimConfig>& bases,
    const std::vector<WeightedPattern>& mix, int num_seeds, int jobs = 0);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_DRIVER_SIM_RUN_H_
