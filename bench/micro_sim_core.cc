// micro_sim_core — microbenchmark of the simulator kernel.
//
// Three workloads drive the production EventQueue alone (schedule+pop at
// the measured-realistic queue size, a deep-heap variant, steady-state
// churn); then one short end-to-end replica per scheduler on the 16-file
// Experiment-1 pattern, and one LOW replica on the 1M-file open-world mix,
// report whole-kernel events/sec and wall seconds (best of the same
// repetitions). The end-to-end rows are the ones that decide a kernel
// change: the queue rows run heaps far deeper than a simulation keeps.
// Results land in BENCH_sim_core.json and a CSV for per-PR tracking;
// --smoke shrinks the iteration counts to seconds for the perf-labeled
// ctest target (also run under ASan, where absolute numbers are
// meaningless but the workloads double as a stress test).
//
// Every run, smoke included, enforces a floor on the Experiment-1 C2PL row:
// at least 5x the 28,371 events/s C2PL ran at before its deadlock
// prediction was made cheap (the first BENCH_sim_core.json snapshot in
// results/BENCH_trajectory.json). The floor is skipped under sanitizers.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "driver/report.h"
#include "driver/sim_run.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "sim/event_queue.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/openworld.h"
#include "workload/pattern.h"

using namespace wtpgsched;

// Sanitizer builds run the same workloads but skip the wall-clock floor.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WTPG_BENCH_SANITIZED 1
#endif
#if !defined(WTPG_BENCH_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WTPG_BENCH_SANITIZED 1
#endif
#endif
#ifndef WTPG_BENCH_SANITIZED
#define WTPG_BENCH_SANITIZED 0
#endif

namespace {

// The C2PL floor is 5x this recorded baseline (see the file header).
constexpr double kC2plBaselineEventsPerS = 28'371.0;

// ---------------------------------------------------------------------------
// Queue workloads. Every workload returns the number of queue operations
// performed; callbacks bump a sink so the invocation cannot be
// dead-stripped.
//
// The capture is 40 bytes: above the kernel's largest (24 bytes, see
// EventQueue::kInlineCallbackBytes), inside the 48-byte inline budget, and
// trivially copyable like the kernel's own captures.
struct Payload {
  uint64_t* sink;
  uint64_t txn;
  int32_t step;
  int32_t node;
  double cost;
  uint64_t tag;

  void operator()() const { *sink += txn + static_cast<uint64_t>(step); }
};

Payload MakePayload(uint64_t* sink, uint64_t i) {
  return Payload{sink, i, static_cast<int32_t>(i % 7),
                 static_cast<int32_t>(i % 13), 0.5 * static_cast<double>(i),
                 i ^ 0x9E3779B97F4A7C15ull};
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Every drain below mirrors Simulator::Step exactly: NextTime() (the
// horizon check the simulator makes before every event), then Pop(), then
// the callback.
void Drain(EventQueue& q) {
  while (q.NextTime() != kSimTimeMax) {
    q.Pop().callback();
  }
}

// Batches of schedules at random times (many FIFO ties) drained by pops.
uint64_t RunSchedulePop(int rounds, int batch, uint64_t* sink) {
  EventQueue q;
  Rng rng(20260807);
  uint64_t ops = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      q.Schedule(static_cast<SimTime>(rng.UniformInt(0, 99)),
                 MakePayload(sink, static_cast<uint64_t>(i)));
    }
    Drain(q);
    ops += 2u * static_cast<uint64_t>(batch);
  }
  return ops;
}

// Steady state: a resident set of pending events, each pop scheduling a
// successor — the shape of a running simulation (server completions,
// arrivals, timeouts).
uint64_t RunChurn(int steps, int resident, uint64_t* sink) {
  EventQueue q;
  Rng rng(20260809);
  SimTime now = 0;
  for (int i = 0; i < resident; ++i) {
    q.Schedule(static_cast<SimTime>(rng.UniformInt(0, 99)),
               MakePayload(sink, static_cast<uint64_t>(i)));
  }
  for (int s = 0; s < steps; ++s) {
    WTPG_CHECK_NE(q.NextTime(), kSimTimeMax);  // Simulator's horizon check.
    auto ev = q.Pop();
    now = ev.time;
    ev.callback();
    q.Schedule(now + static_cast<SimTime>(rng.UniformInt(1, 99)),
               MakePayload(sink, static_cast<uint64_t>(s)));
  }
  return 2u * static_cast<uint64_t>(steps);
}

struct WorkloadResult {
  std::string workload;
  uint64_t ops = 0;
  double seconds = 0.0;
  double mops_per_s = 0.0;
};

// Best-of-`reps` measurement: on a shared container a single run can eat an
// arbitrary scheduling stall, so the fastest repetition is the least-noisy
// estimate of the workload's actual cost (the standard microbenchmark rule:
// noise only ever adds time).
WorkloadResult Measure(const std::string& workload,
                       uint64_t (*fn)(int, int, uint64_t*), int a, int b,
                       int reps) {
  WorkloadResult r;
  r.workload = workload;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t ops = fn(a, b, &sink);
    const auto t1 = std::chrono::steady_clock::now();
    WTPG_CHECK_GT(sink, 0u);
    const double seconds = Seconds(t0, t1);
    const double mops = seconds > 0.0 ? ops / seconds / 1e6 : 0.0;
    if (rep == 0 || mops > r.mops_per_s) {
      r.ops = ops;
      r.seconds = seconds;
      r.mops_per_s = mops;
    }
  }
  return r;
}

struct EndToEndResult {
  std::string workload;
  std::string scheduler;
  uint64_t events = 0;
  double seconds = 0.0;
  double events_per_s = 0.0;
  uint64_t completions = 0;
};

SimConfig EndToEndConfig(SchedulerKind kind, uint64_t max_arrivals,
                         double horizon_ms) {
  SimConfig config;
  config.scheduler = kind;
  config.run.horizon_ms = horizon_ms;
  // Near the knee of the Fig.-8 rate grid: contended enough that scheduler
  // decisions (WTPG evaluations, lock scans) dominate, not idle arrivals.
  // The arrival cap (not the horizon) bounds the work: a saturated
  // scheduler's backlog grows with simulated time, so long horizons cost
  // quadratic wall time; a fixed arrival count with a generous drain
  // horizon keeps every scheduler's workload comparable and finite.
  config.workload.arrival_rate_tps = 1.2;
  config.workload.max_arrivals = max_arrivals;
  return config;
}

// One replica, best of `reps` (the Measure rule above).
template <typename Workload>
EndToEndResult RunEndToEnd(const std::string& workload_name,
                           const SimConfig& config, const Workload& workload,
                           int reps) {
  EndToEndResult r;
  r.workload = workload_name;
  r.scheduler = SchedulerKindName(config.scheduler);
  for (int rep = 0; rep < reps; ++rep) {
    Machine machine(config, workload);
    const auto t0 = std::chrono::steady_clock::now();
    const RunStats stats = machine.Run();
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = Seconds(t0, t1);
    if (rep == 0 || seconds < r.seconds) {
      r.events = machine.simulator().events_executed();
      r.seconds = seconds;
      r.events_per_s = seconds > 0.0 ? r.events / seconds : 0.0;
      r.completions = stats.completions;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false,
                "tiny iteration counts (ctest perf label / sanitizers)");
  flags.AddString("out-json", "BENCH_sim_core.json", "JSON result file");
  flags.AddString("out-csv", "micro_sim_core.csv", "CSV result file");
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
  // Queue sizes: instrumenting Simulator::Step across all four schedulers
  // at the Fig.-8 operating point (rate 1.2, Experiment 1 pattern) shows
  // the pending-event population is tiny — mean 3-8, max 11 — because the
  // backlog under load lives in scheduler admission queues, not the event
  // queue. batch=64 is a generous envelope of that regime and is the
  // headline schedule+pop number; the _deep variant (batch 1024, ten heap
  // levels) and churn (resident 4096) keep the deep-heap regime tracked.
  const int rounds = smoke ? 128 : 32'000;
  const int batch = 64;
  const int deep_rounds = smoke ? 8 : 2000;
  const int deep_batch = 1024;
  const int churn_steps = smoke ? 20'000 : 4'000'000;
  const int churn_resident = 4096;
  const uint64_t max_arrivals = smoke ? 200 : 5'000;
  const double horizon_ms = 100'000'000;  // Drain horizon; arrivals bound work.

  struct Spec {
    const char* name;
    uint64_t (*fn)(int, int, uint64_t*);
    int a, b;
  };
  const Spec specs[] = {
      {"schedule_pop", &RunSchedulePop, rounds, batch},
      {"schedule_pop_deep", &RunSchedulePop, deep_rounds, deep_batch},
      {"churn", &RunChurn, churn_steps, churn_resident},
  };

  TablePrinter queue_table({"workload", "ops", "Mops/s"});
  std::string queue_json;
  CsvWriter csv;
  const Status csv_status = csv.Open(flags.GetString("out-csv"));
  if (!csv_status.ok()) {
    std::fprintf(stderr, "%s\n", csv_status.ToString().c_str());
    return 1;
  }
  csv.WriteHeader({"section", "workload", "scheduler", "ops", "seconds",
                   "mops_per_s"});

  // Two in smoke: its C2PL floor row runs for a few ms, where one
  // descheduling could sink a single measurement below the floor.
  const int reps = smoke ? 2 : 5;
  for (const Spec& spec : specs) {
    const WorkloadResult r =
        Measure(spec.name, spec.fn, spec.a, spec.b, reps);
    queue_table.AddRow(
        {r.workload, StrCat(r.ops), FormatDouble(r.mops_per_s, 2)});
    JsonWriter row;
    row.Add("workload", r.workload)
        .Add("ops", r.ops)
        .Add("seconds", r.seconds)
        .Add("mops_per_s", r.mops_per_s);
    if (!queue_json.empty()) queue_json += ',';
    queue_json += row.ToString();
    csv.WriteRow({"queue", r.workload, "", StrCat(r.ops),
                  FormatDouble(r.seconds, 4), FormatDouble(r.mops_per_s, 3)});
  }
  queue_table.Print();

  constexpr SchedulerKind kKinds[] = {SchedulerKind::kTwoPl,
                                      SchedulerKind::kC2pl,
                                      SchedulerKind::kGow, SchedulerKind::kLow};
  std::vector<EndToEndResult> e2e_rows;
  double c2pl_events_per_s = 0.0;
  for (SchedulerKind kind : kKinds) {
    const SimConfig config = EndToEndConfig(kind, max_arrivals, horizon_ms);
    e2e_rows.push_back(RunEndToEnd(
        "exp1", config, Pattern::Experiment1(config.machine.num_files), reps));
    if (kind == SchedulerKind::kC2pl) {
      c2pl_events_per_s = e2e_rows.back().events_per_s;
    }
  }
  // The same cap on the open-world mix: a Zipf universe of 1M files, of
  // which the run touches a small fraction. Tracks what per-file state
  // costs when it is sized by the universe rather than by the files
  // touched.
  {
    const OpenWorldSpec spec;
    SimConfig config =
        EndToEndConfig(SchedulerKind::kLow, max_arrivals, horizon_ms);
    config.machine.num_files = spec.num_files;
    config.workload.zipf_theta = spec.zipf_theta;
    e2e_rows.push_back(
        RunEndToEnd("openworld_1m", config, MakeOpenWorldMix(spec), reps));
  }
  TablePrinter e2e_table(
      {"workload", "scheduler", "events", "wall(s)", "events/s"});
  std::string e2e_json;
  for (const EndToEndResult& r : e2e_rows) {
    e2e_table.AddRow({r.workload, r.scheduler, StrCat(r.events),
                      FormatDouble(r.seconds, 3),
                      FormatDouble(r.events_per_s, 0)});
    JsonWriter row;
    row.Add("workload", r.workload)
        .Add("scheduler", r.scheduler)
        .Add("events", r.events)
        .Add("seconds", r.seconds)
        .Add("events_per_s", r.events_per_s)
        .Add("completions", r.completions);
    if (!e2e_json.empty()) e2e_json += ',';
    e2e_json += row.ToString();
    csv.WriteRow({"end_to_end", r.workload, r.scheduler, StrCat(r.events),
                  FormatDouble(r.seconds, 4),
                  FormatDouble(r.events_per_s / 1e6, 3)});
  }
  e2e_table.Print();

  const double c2pl_floor = 5.0 * kC2plBaselineEventsPerS;
  const bool sanitized = WTPG_BENCH_SANITIZED != 0;
  const bool floor_ok = sanitized || c2pl_events_per_s >= c2pl_floor;
  std::printf("c2pl: %.0f events/s (floor %.0f, baseline %.0f)%s\n",
              c2pl_events_per_s, c2pl_floor, kC2plBaselineEventsPerS,
              sanitized ? " [sanitized: floor not enforced]" : "");

  JsonWriter json;
  json.Add("bench", "sim_core")
      .Add("smoke", smoke)
      .Add("hardware_threads", HardwareThreads())
      .Add("sanitized", sanitized)
      .Add("c2pl_floor_events_per_s", c2pl_floor)
      .AddRaw("queue", StrCat("[", queue_json, "]"))
      .AddRaw("end_to_end", StrCat("[", e2e_json, "]"));
  const std::string out_path = flags.GetString("out-json");
  std::ofstream out(out_path);
  out << json.ToString() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const Status close_status = csv.Close();
  if (!close_status.ok()) {
    std::fprintf(stderr, "%s\n", close_status.ToString().c_str());
    return 1;
  }
  std::printf("-> %s, %s\n", out_path.c_str(),
              flags.GetString("out-csv").c_str());
  if (!floor_ok) {
    std::fprintf(stderr, "FAIL: c2pl %.0f events/s below floor %.0f\n",
                 c2pl_events_per_s, c2pl_floor);
    return 1;
  }
  return 0;
}
