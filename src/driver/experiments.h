#ifndef WTPG_SCHED_DRIVER_EXPERIMENTS_H_
#define WTPG_SCHED_DRIVER_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "driver/sim_run.h"
#include "driver/sweep.h"
#include "machine/config.h"
#include "workload/openworld.h"
#include "workload/pattern.h"

namespace wtpgsched {

// Shared definitions for the experiment (bench) binaries reproducing the
// paper's Section 5. Each bench regenerates one table or figure; the pieces
// they share — scheduler line-up, Table-1 base configuration, the
// RT = 70 s operating-point search — live here.

// The six schedulers in the paper's reporting order:
// NODC, ASL, GOW, LOW, C2PL, OPT.
std::vector<SchedulerKind> PaperSchedulers();

// Short label matching the paper's tables (LOW means LOW with K=2).
std::string SchedulerLabel(SchedulerKind kind);

// Table-1 configuration for one scheduler; experiments override num_files,
// dd, arrival rate and sigma as needed.
SimConfig MakeConfig(SchedulerKind kind, int num_files, int dd,
                     double arrival_rate_tps, double error_sigma = 0.0);

// Reads a numeric environment knob. Unset or empty gives `fallback`; a
// value that does not parse, or lies outside the inclusive range [lo, hi],
// is reported (warning log) and `fallback` kept, instead of an atoi-style
// silent zero, a narrowing wrap, or an abort in the value's consumer.
int EnvInt(const char* name, int fallback, int lo, int hi);
double EnvDouble(const char* name, double fallback, double lo, double hi);

// Effort knobs, overridable via environment variables (read by EnvInt /
// EnvDouble with the ranges shown):
//   WTPG_SEEDS     seeds per data point, >= 1    (default 1, as the paper)
//   WTPG_RT_ITERS  bisection iterations, >= 0    (default 9)
//   WTPG_RT_TOL    bisection tolerance, s, >= 0  (default 2.5)
//   WTPG_HORIZON_MS simulation horizon, > 0      (default 2,000,000)
//   WTPG_CSV_DIR   CSV output directory          (default "results")
//   WTPG_JOBS      replica worker threads, >= 0  (default: hardware)
//   WTPG_FAST=1    quick mode: 1 seed, 6 iters, 500k ms horizon
struct BenchOptions {
  int seeds = 1;  // The paper reports single runs; raise via WTPG_SEEDS.
  int rt_iters = 9;
  double rt_tol_s = 2.5;
  double horizon_ms = 2'000'000;
  std::string csv_dir = "results";
  // Worker threads for the replica fan-out (0 = DefaultJobs(): WTPG_JOBS
  // env or hardware concurrency). Results are identical for any value.
  int jobs = 0;
};

BenchOptions GetBenchOptions();

// Ensures options.csv_dir exists and returns "<dir>/<name>.csv"; empty
// string when CSV output is disabled.
std::string CsvPath(const BenchOptions& options, const std::string& name);

// The response-time target the paper's throughput tables use.
inline constexpr double kRtTargetSeconds = 70.0;
// Arrival-rate bracket for the operating-point search (the paper sweeps
// lambda in [0, 1.4] TPS).
inline constexpr double kLambdaLo = 0.05;
inline constexpr double kLambdaHi = 1.6;

// Throughput at mean response time = 70 s for one scheduler/configuration.
OperatingPoint FindRt70(SchedulerKind kind, int num_files, int dd,
                        const Pattern& pattern, const BenchOptions& options,
                        double error_sigma = 0.0);

// Mean response time at a fixed arrival rate.
AggregateResult RunAtRate(SchedulerKind kind, int num_files, int dd,
                          double arrival_rate_tps, const Pattern& pattern,
                          const BenchOptions& options,
                          double error_sigma = 0.0);

// C2PL+M at a fixed arrival rate: C2PL with the MPL tuned for best mean
// response time.
MplChoice RunC2plMAtRate(int num_files, int dd, double arrival_rate_tps,
                         const Pattern& pattern, const BenchOptions& options,
                         double error_sigma = 0.0);

// Open-world production tier (workload/openworld.h): the two-class Zipf mix
// at a fixed arrival rate for every paper scheduler, with tail metrics on
// (sketch mode selectable) and batch admission control when batch_mpl > 0.
// One RunAggregates batch — all scheduler x seed replicas fan out together.
// Results are in PaperSchedulers() order.
struct OpenWorldRun {
  SchedulerKind kind = SchedulerKind::kLow;
  AggregateResult result;
};
std::vector<OpenWorldRun> RunOpenWorld(const OpenWorldSpec& spec,
                                       double arrival_rate_tps, int batch_mpl,
                                       bool sketch,
                                       const BenchOptions& options);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_DRIVER_EXPERIMENTS_H_
