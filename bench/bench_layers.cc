// bench_layers — host cost of saturated runs against the simulated horizon.
//
// Runs ASL, GOW, LOW and C2PL on Experiment 1 (16 files, DD 1) at 1.2 TPS,
// seed 1, past every scheduler's saturation knee, for horizons of 2,000,
// 5,000, 10,000 and 20,000 s, best of 3 per point, one Machine run at a time
// in this process. For each scheduler it records wall seconds, wall seconds
// per simulated second, simulated events, commits and the transactions in
// flight at the horizon, and the ratio of wall per simulated second at
// 20,000 s to that at 5,000 s: 1 when host cost grows linearly with the
// horizon. Results land in BENCH_layers.json with the hardware thread count.
// Every repetition of a point must reproduce the first one's RunStats and
// event count; the bench exits 1 otherwise.
//
// --smoke runs horizons of 300 and 1,200 s, one repetition (the perf-labeled
// ctest and CI).
//
//   ./build/bench/bench_layers --out results/BENCH_layers.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "machine/config.h"
#include "machine/machine.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/pattern.h"

using namespace wtpgsched;

namespace {

constexpr SchedulerKind kSchedulers[] = {
    SchedulerKind::kAsl, SchedulerKind::kGow, SchedulerKind::kLow,
    SchedulerKind::kC2pl};
constexpr double kRateTps = 1.2;
constexpr uint64_t kSeed = 1;
constexpr int kReps = 3;  // Best of kReps per point (1 under --smoke).

struct Point {
  double horizon_s = 0.0;
  double wall_s = 0.0;  // Best repetition.
  uint64_t events = 0;
  RunStats stats;
};

// Runs one point `reps` times; *identical turns false when a repetition's
// outcome differs from the first one's.
Point RunPoint(SchedulerKind kind, double horizon_s, int reps,
               bool* identical) {
  SimConfig config;
  config.scheduler = kind;
  config.workload.arrival_rate_tps = kRateTps;
  config.run.horizon_ms = horizon_s * 1000.0;
  config.run.seed = kSeed;
  Point point;
  point.horizon_s = horizon_s;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    Machine machine(config, Pattern::Experiment1(config.machine.num_files));
    const RunStats stats = machine.Run();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    const uint64_t events = machine.simulator().events_executed();
    if (rep == 0) {
      point.wall_s = wall_s;
      point.events = events;
      point.stats = stats;
      continue;
    }
    point.wall_s = std::min(point.wall_s, wall_s);
    *identical = *identical && events == point.events && stats == point.stats;
  }
  return point;
}

double WallPerSimSecond(const Point& point) {
  return point.wall_s / point.horizon_s;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false, "short horizons, one repetition");
  flags.AddString("out", "BENCH_layers.json", "result file");
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
  const bool smoke = flags.GetBool("smoke");
  const int reps = smoke ? 1 : kReps;
  const std::vector<double> horizons_s =
      smoke ? std::vector<double>{300, 1'200}
            : std::vector<double>{2'000, 5'000, 10'000, 20'000};
  // The ratio compares the last horizon with the second of the full scan
  // (its first is mostly set-up) and with the first of the smoke scan.
  const size_t ratio_from = smoke ? 0 : 1;
  const double ratio_from_s = horizons_s[ratio_from];
  const double ratio_to_s = horizons_s.back();
  const int hardware_threads = HardwareThreads();
  std::printf("layer bench: %.1f TPS, seed %llu, best of %d, %d hardware "
              "threads\n",
              kRateTps, static_cast<unsigned long long>(kSeed), reps,
              hardware_threads);
  std::printf("%-6s %10s %10s %14s %10s %8s %10s\n", "sched", "horizon_s",
              "wall_s", "wall_per_sim_s", "events", "commits", "in_flight");

  bool identical = true;
  std::string schedulers_json;
  for (const SchedulerKind kind : kSchedulers) {
    std::vector<Point> points;
    std::string points_json;
    for (const double horizon_s : horizons_s) {
      points.push_back(RunPoint(kind, horizon_s, reps, &identical));
      const Point& p = points.back();
      std::printf("%-6s %10.0f %10.3f %14.3e %10llu %8llu %10llu\n",
                  SchedulerKindName(kind), p.horizon_s, p.wall_s,
                  WallPerSimSecond(p),
                  static_cast<unsigned long long>(p.events),
                  static_cast<unsigned long long>(p.stats.completions),
                  static_cast<unsigned long long>(p.stats.in_flight_at_end));
      JsonWriter point;
      point.Add("horizon_s", p.horizon_s)
          .Add("wall_s", p.wall_s)
          .Add("wall_per_sim_s", WallPerSimSecond(p))
          .Add("events", p.events)
          .Add("commits", p.stats.completions)
          .Add("in_flight", p.stats.in_flight_at_end);
      if (!points_json.empty()) points_json += ",";
      points_json += point.ToString();
    }
    const double ratio =
        WallPerSimSecond(points.back()) / WallPerSimSecond(points[ratio_from]);
    std::printf("%-6s wall per simulated second, %.0f s vs %.0f s: %.2fx\n",
                SchedulerKindName(kind), ratio_to_s, ratio_from_s, ratio);
    JsonWriter sched;
    sched.Add("scheduler", SchedulerKindName(kind))
        .AddRaw("points", StrCat("[", points_json, "]"))
        .Add("growth_ratio", ratio);
    if (!schedulers_json.empty()) schedulers_json += ",";
    schedulers_json += sched.ToString();
  }

  JsonWriter json;
  json.Add("bench", "layers")
      .Add("hardware_threads", hardware_threads)
      .Add("smoke", smoke)
      .Add("rate_tps", kRateTps)
      .Add("seed", kSeed)
      .Add("num_files", SimConfig{}.machine.num_files)
      .Add("reps", reps)
      .AddRaw("growth_ratio_horizons_s",
              StrCat("[", ratio_from_s, ",", ratio_to_s, "]"))
      .AddRaw("schedulers", StrCat("[", schedulers_json, "]"))
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
