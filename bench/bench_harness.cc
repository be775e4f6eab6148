// bench_harness — replica scaling of the parallel experiment harness.
//
// Times two curves, best of 3 per point, and checks every run's output is
// identical to the first jobs = 1 run:
//  - sweep: one fixed multi-scheduler arrival-rate sweep (the Fig.-8 rate
//    grid, at the paper suite's horizon) at jobs = 1, 2, 4, ... up to the
//    hardware thread count;
//  - search: the twelve RT = 70 s operating-point searches that hostbench's
//    paper_rt70 workload runs per sub-seed (six paper schedulers x DD 1 and
//    4, 16 files, 500 s horizon, 6 iterations, tolerance 0, one seed) at
//    jobs = 1, 2, 3, ... up to the hardware thread count, since the search
//    sizes its batches to each worker count.
// Writes both curves to BENCH_harness.json. On a 1-thread host each curve is
// the single jobs=1 point.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
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

// Best of kReps runs per point: the minimum is the run least disturbed by
// other load on the host.
constexpr int kReps = 3;

constexpr SchedulerKind kSchedulers[] = {
    SchedulerKind::kLow, SchedulerKind::kGow, SchedulerKind::kC2pl};

// One full sweep (all schedulers x rates x seeds) at the given worker
// count; returns every point's AggregateResult for exact identity checks.
std::vector<AggregateResult> RunSweep(const std::vector<double>& rates,
                                      int seeds, double horizon_ms, int jobs) {
  std::vector<AggregateResult> results;
  for (SchedulerKind kind : kSchedulers) {
    SimConfig config;
    config.scheduler = kind;
    config.run.horizon_ms = horizon_ms;
    for (const SweepPoint& p :
         SweepArrivalRates(config, Pattern::Experiment1(config.machine.num_files),
                           rates, seeds, jobs)) {
      results.push_back(p.result);
    }
  }
  return results;
}

// paper_rt70's searches at quick-mode effort, with tolerance 0 so that every
// search makes all its bisection steps.
BenchOptions SearchOptions(int jobs) {
  BenchOptions options;
  options.seeds = 1;
  options.rt_iters = 6;
  options.rt_tol_s = 0.0;
  options.horizon_ms = 500'000;
  options.jobs = jobs;
  options.csv_dir.clear();
  return options;
}

constexpr int kSearchDds[] = {1, 4};

// The twelve searches at the given worker count; returns every
// OperatingPoint field, doubles printed exactly, for identity checks.
std::string RunSearches(int jobs) {
  const Pattern pattern = Pattern::Experiment1(16);
  std::string combined;
  for (int dd : kSearchDds) {
    for (SchedulerKind kind : PaperSchedulers()) {
      const OperatingPoint op =
          FindRt70(kind, 16, dd, pattern, SearchOptions(jobs));
      combined += Format("%s dd%d %a %a %a %d %d\n", SchedulerKindName(kind),
                         dd, op.lambda_tps, op.mean_response_s,
                         op.throughput_tps, op.num_seeds,
                         op.converged ? 1 : 0);
    }
  }
  return combined;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Times `run` at each worker count (best of kReps), prints the table, and
// returns the curve as a JSON array; *identical turns false when any run's
// output differs from the first one's.
template <typename Output>
std::string TimeCurve(const std::vector<int>& curve_jobs,
                      const std::function<Output(int jobs)>& run,
                      bool* identical) {
  TablePrinter table({"jobs", "wall(s)", "speedup", "identical"});
  std::optional<Output> baseline;
  double wall_jobs1_s = 0.0;
  std::string curve_json;
  for (int jobs : curve_jobs) {
    double wall_s = 0.0;
    bool same = true;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const Output output = run(jobs);
      const double rep_s = Seconds(start, std::chrono::steady_clock::now());
      if (rep == 0 || rep_s < wall_s) wall_s = rep_s;
      if (!baseline) baseline = output;
      same = same && output == *baseline;
    }
    if (jobs == 1) wall_jobs1_s = wall_s;
    *identical = *identical && same;
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
  return StrCat("[", curve_json, "]");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("seeds", 4, "seeds per data point of the sweep");
  flags.AddDouble("horizon-ms", BenchOptions{}.horizon_ms,
                  "simulated milliseconds per replica of the sweep");
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
  const int hardware_threads = HardwareThreads();
  std::vector<int> sweep_jobs;
  for (int jobs = 1; jobs < hardware_threads; jobs *= 2) {
    sweep_jobs.push_back(jobs);
  }
  sweep_jobs.push_back(hardware_threads);
  std::vector<int> search_jobs;
  for (int jobs = 1; jobs <= hardware_threads; ++jobs) {
    search_jobs.push_back(jobs);
  }

  std::printf("harness bench: %zu schedulers x %zu rates x %d seeds = %d "
              "replicas, horizon %.0f ms, %d hardware threads\n",
              std::size(kSchedulers), rates.size(), seeds, replicas,
              horizon_ms, hardware_threads);
  bool sweep_identical = true;
  const std::string sweep_curve = TimeCurve<std::vector<AggregateResult>>(
      sweep_jobs,
      [&](int jobs) { return RunSweep(rates, seeds, horizon_ms, jobs); },
      &sweep_identical);

  const BenchOptions search = SearchOptions(0);
  const int searches =
      static_cast<int>(std::size(kSearchDds) * PaperSchedulers().size());
  std::printf("\nsearch bench: %d RT = 70 s searches, horizon %.0f ms, %d "
              "iterations, tolerance %g s, %d seed\n",
              searches, search.horizon_ms, search.rt_iters, search.rt_tol_s,
              search.seeds);
  bool search_identical = true;
  const std::string search_curve =
      TimeCurve<std::string>(search_jobs, RunSearches, &search_identical);

  JsonWriter search_json;
  search_json.Add("searches", searches)
      .Add("horizon_ms", search.horizon_ms)
      .Add("iters", search.rt_iters)
      .Add("tol_s", search.rt_tol_s)
      .Add("seeds", search.seeds)
      .AddRaw("curve", search_curve)
      .Add("outputs_identical", search_identical);
  const bool identical = sweep_identical && search_identical;
  JsonWriter json;
  json.Add("bench", "harness_sweep")
      .Add("hardware_threads", hardware_threads)
      .Add("replicas", replicas)
      .Add("schedulers", static_cast<int>(std::size(kSchedulers)))
      .Add("rates", static_cast<int>(rates.size()))
      .Add("seeds", seeds)
      .Add("horizon_ms", horizon_ms)
      .Add("reps", kReps)
      .AddRaw("curve", sweep_curve)
      .AddRaw("search", search_json.ToString())
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
