#include "driver/experiments.h"

#include <cstdlib>
#include <filesystem>
#include <limits>

#include "sim/time.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

// Shared body of EnvInt and EnvDouble. `Parsed` is what the strict parser
// yields (int64_t for ints, so an out-of-range value is caught before the
// narrowing cast instead of wrapping).
template <typename T, typename Parsed>
T EnvNumber(const char* name, T fallback, T lo, T hi,
            bool (*parse)(const std::string&, Parsed*), const char* kind) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  Parsed parsed{};
  if (!parse(value, &parsed)) {
    WTPG_LOG(Warning) << name << "='" << value << "' is not " << kind
                      << "; using default " << fallback;
    return fallback;
  }
  // Negated so that NaN is out of range too.
  if (!(parsed >= lo && parsed <= hi)) {
    WTPG_LOG(Warning) << name << "='" << value
                      << "' is out of range; using default " << fallback;
    return fallback;
  }
  return static_cast<T>(parsed);
}

}  // namespace

int EnvInt(const char* name, int fallback, int lo, int hi) {
  return EnvNumber<int, int64_t>(name, fallback, lo, hi, &ParseInt64,
                                 "an integer");
}

double EnvDouble(const char* name, double fallback, double lo, double hi) {
  return EnvNumber<double, double>(name, fallback, lo, hi, &ParseDouble,
                                   "a number");
}

std::vector<SchedulerKind> PaperSchedulers() {
  return {SchedulerKind::kNodc, SchedulerKind::kAsl, SchedulerKind::kGow,
          SchedulerKind::kLow,  SchedulerKind::kC2pl, SchedulerKind::kOpt};
}

std::string SchedulerLabel(SchedulerKind kind) {
  return SchedulerKindName(kind);
}

SimConfig MakeConfig(SchedulerKind kind, int num_files, int dd,
                     double arrival_rate_tps, double error_sigma) {
  SimConfig config;  // Table-1 defaults.
  config.scheduler = kind;
  config.machine.num_files = num_files;
  config.machine.dd = dd;
  config.workload.arrival_rate_tps = arrival_rate_tps;
  config.workload.error_sigma = error_sigma;
  return config;
}

BenchOptions GetBenchOptions() {
  BenchOptions options;
  const char* fast = std::getenv("WTPG_FAST");
  if (fast != nullptr && fast[0] == '1') {
    options.seeds = 1;
    options.rt_iters = 6;
    options.rt_tol_s = 5.0;
    options.horizon_ms = 500'000;
  }
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  options.seeds = EnvInt("WTPG_SEEDS", options.seeds, 1, kIntMax);
  options.rt_iters = EnvInt("WTPG_RT_ITERS", options.rt_iters, 0, kIntMax);
  options.rt_tol_s =
      EnvDouble("WTPG_RT_TOL", options.rt_tol_s, 0.0, kDoubleMax);
  // The horizon must convert to a positive SimTime without overflow.
  options.horizon_ms = EnvDouble("WTPG_HORIZON_MS", options.horizon_ms,
                                 TimeToMs(1), kMaxDurationMs);
  options.jobs = EnvInt("WTPG_JOBS", options.jobs, 0, kIntMax);
  const char* dir = std::getenv("WTPG_CSV_DIR");
  if (dir != nullptr) options.csv_dir = dir;
  return options;
}

std::string CsvPath(const BenchOptions& options, const std::string& name) {
  if (options.csv_dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(options.csv_dir, ec);
  if (ec) {
    WTPG_LOG(Warning) << "cannot create CSV dir " << options.csv_dir << ": "
                      << ec.message();
    return "";
  }
  return StrCat(options.csv_dir, "/", name, ".csv");
}

OperatingPoint FindRt70(SchedulerKind kind, int num_files, int dd,
                        const Pattern& pattern, const BenchOptions& options,
                        double error_sigma) {
  SimConfig config = MakeConfig(kind, num_files, dd, /*arrival_rate_tps=*/1.0,
                                error_sigma);
  config.run.horizon_ms = options.horizon_ms;
  return FindRateForResponseTime(config, pattern, kRtTargetSeconds, kLambdaLo,
                                 kLambdaHi, options.seeds, options.rt_iters,
                                 options.rt_tol_s, options.jobs);
}

AggregateResult RunAtRate(SchedulerKind kind, int num_files, int dd,
                          double arrival_rate_tps, const Pattern& pattern,
                          const BenchOptions& options, double error_sigma) {
  SimConfig config =
      MakeConfig(kind, num_files, dd, arrival_rate_tps, error_sigma);
  config.run.horizon_ms = options.horizon_ms;
  return RunAggregate(config, pattern, options.seeds, options.jobs);
}

MplChoice RunC2plMAtRate(int num_files, int dd, double arrival_rate_tps,
                         const Pattern& pattern, const BenchOptions& options,
                         double error_sigma) {
  SimConfig config = MakeConfig(SchedulerKind::kC2pl, num_files, dd,
                                arrival_rate_tps, error_sigma);
  config.run.horizon_ms = options.horizon_ms;
  return TuneMpl(config, pattern, DefaultMplCandidates(), options.seeds,
                 options.jobs);
}

std::vector<OpenWorldRun> RunOpenWorld(const OpenWorldSpec& spec,
                                       double arrival_rate_tps, int batch_mpl,
                                       bool sketch,
                                       const BenchOptions& options) {
  // The mix carries the Zipf skew already; recording the theta in the config
  // is redundant but keeps the reproducibility artifact self-describing
  // (Machine's WithZipf overlay with the same theta is idempotent).
  const std::vector<WeightedPattern> mix = MakeOpenWorldMix(spec);
  std::vector<SimConfig> bases;
  for (SchedulerKind kind : PaperSchedulers()) {
    SimConfig config =
        MakeConfig(kind, spec.num_files, /*dd=*/1, arrival_rate_tps);
    config.workload.zipf_theta = spec.zipf_theta;
    config.machine.batch_mpl = batch_mpl;
    config.run.tail_metrics = true;
    config.run.tail_sketch = sketch;
    config.run.horizon_ms = options.horizon_ms;
    bases.push_back(config);
  }
  const std::vector<AggregateResult> results =
      RunAggregates(bases, mix, options.seeds, options.jobs);
  std::vector<OpenWorldRun> runs;
  runs.reserve(results.size());
  const std::vector<SchedulerKind> kinds = PaperSchedulers();
  for (size_t i = 0; i < results.size(); ++i) {
    runs.push_back(OpenWorldRun{kinds[i], results[i]});
  }
  return runs;
}

}  // namespace wtpgsched
