// bench_harness — replica scaling of the parallel experiment harness.
//
// Times one fixed multi-scheduler arrival-rate sweep (the Fig.-8 rate grid,
// at the paper suite's horizon) at jobs = 1, 2, 4, ... up to the hardware
// thread count, best of 3 per point, checks every run's aggregates are
// byte-identical to the first jobs=1 run, and writes the curve to
// BENCH_harness.json. On a 1-thread
// host the curve is the single jobs=1 point.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "driver/experiments.h"
#include "driver/report.h"
#include "driver/sweep.h"
#include "machine/config.h"
#include "util/common_flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace wtpgsched;

namespace {

// Best of kReps sweeps per point: the minimum is the run least disturbed by
// other load on the host.
constexpr int kReps = 3;

constexpr SchedulerKind kSchedulers[] = {
    SchedulerKind::kLow, SchedulerKind::kGow, SchedulerKind::kC2pl};

// One full sweep (all schedulers x rates x seeds) at the given worker
// count; returns concatenated AggregateResult JSON for identity checks.
std::string RunSweep(const std::vector<double>& rates, int seeds,
                     double horizon_ms, int jobs) {
  std::string combined;
  for (SchedulerKind kind : kSchedulers) {
    SimConfig config;
    config.scheduler = kind;
    config.run.horizon_ms = horizon_ms;
    for (const SweepPoint& p :
         SweepArrivalRates(config, Pattern::Experiment1(config.machine.num_files),
                           rates, seeds, jobs)) {
      combined += p.result.ToJson();
      combined += '\n';
    }
  }
  return combined;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("seeds", 4, "seeds per data point");
  flags.AddDouble("horizon-ms", BenchOptions{}.horizon_ms,
                  "simulated milliseconds per replica");
  flags.AddString("out", "BENCH_harness.json", "result file");
  AddProgressFlags(flags);
  flags.AddBool("help", false, "print usage");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  ApplyProgressFlags(flags);

  const std::vector<double> rates = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4};
  const int seeds = static_cast<int>(flags.GetInt("seeds"));
  const double horizon_ms = flags.GetDouble("horizon-ms");
  const int replicas = static_cast<int>(std::size(kSchedulers) *
                                        rates.size()) * seeds;
  const int hardware_threads = ThreadPool::HardwareThreads();
  std::vector<int> curve_jobs;
  for (int jobs = 1; jobs < hardware_threads; jobs *= 2) {
    curve_jobs.push_back(jobs);
  }
  curve_jobs.push_back(hardware_threads);

  std::printf("harness bench: %zu schedulers x %zu rates x %d seeds = %d "
              "replicas, horizon %.0f ms, %d hardware threads\n",
              std::size(kSchedulers), rates.size(), seeds, replicas,
              horizon_ms, hardware_threads);

  TablePrinter table({"jobs", "wall(s)", "speedup", "identical"});
  std::string baseline;
  double wall_jobs1_s = 0.0;
  bool identical = true;
  std::string curve_json;
  for (int jobs : curve_jobs) {
    double wall_s = 0.0;
    bool same = true;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const std::string output = RunSweep(rates, seeds, horizon_ms, jobs);
      const double rep_s = Seconds(start, std::chrono::steady_clock::now());
      if (rep == 0 || rep_s < wall_s) wall_s = rep_s;
      if (baseline.empty()) baseline = output;
      same = same && output == baseline;
    }
    if (jobs == 1) wall_jobs1_s = wall_s;
    identical = identical && same;
    const double speedup = wall_s > 0.0 ? wall_jobs1_s / wall_s : 0.0;
    table.AddRow({StrCat(jobs), FormatDouble(wall_s, 2),
                  FormatDouble(speedup, 2), same ? "yes" : "NO"});
    JsonWriter point;
    point.Add("jobs", jobs)
        .Add("wall_s", wall_s)
        .Add("speedup", speedup)
        .Add("outputs_identical", same);
    if (!curve_json.empty()) curve_json += ',';
    curve_json += point.ToString();
  }
  table.Print();

  JsonWriter json;
  json.Add("bench", "harness_sweep")
      .Add("hardware_threads", hardware_threads)
      .Add("replicas", replicas)
      .Add("schedulers", static_cast<int>(std::size(kSchedulers)))
      .Add("rates", static_cast<int>(rates.size()))
      .Add("seeds", seeds)
      .Add("horizon_ms", horizon_ms)
      .Add("reps", kReps)
      .AddRaw("curve", StrCat("[", curve_json, "]"))
      .Add("outputs_identical", identical);
  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  out << json.ToString() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("-> %s\n", out_path.c_str());
  return identical ? 0 : 1;
}
