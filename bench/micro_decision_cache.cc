// micro_decision_cache — hit-rate and lookup-cost benchmark of the decision
// cache layer (DESIGN.md section 12).
//
// Three sections:
//   1. lookup: nanoseconds per operation for a decision-cache hit
//      (EvalCache / CycleCache fingerprint lookups) against the graph work
//      a hit replaces — a WouldCycle reverse BFS (rotating requesters
//      defeat the per-slot probe cache) and a full EvaluateGrant
//      speculation (orient + critical path + rollback).
//   2. hit_rate: one contended end-to-end replica per WTPG scheduler,
//      reporting cache hits/misses, uncached graph evaluations, and the
//      machine-side retry/shortcut counters the caches feed off.
//   3. end_to_end: events/sec per scheduler, best-of-reps.
//
// Results land in BENCH_decision_cache.json and a CSV for per-PR tracking;
// --smoke shrinks iteration counts for the perf-labeled ctest target. The
// smoke run also enforces the PR's acceptance floor — cached C2PL at least
// 5x its pre-cache 28,371 events/s — except under sanitizers, where
// absolute numbers are meaningless and the run doubles as a stress test.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "driver/report.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "sched/decision_cache.h"
#include "sched/scheduler.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/pattern.h"
#include "wtpg/wtpg.h"

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

// PR 5 recorded baseline (results/BENCH_sim_core.json): C2PL before the
// decision-cache layer. The acceptance floor below is 5x this.
constexpr double kC2plBaselineEventsPerS = 28'371.0;

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct LookupResult {
  std::string name;
  uint64_t ops = 0;
  double seconds = 0.0;
  double ns_per_op = 0.0;
};

// Best-of-reps: noise only ever adds time, so the fastest repetition is the
// least-noisy estimate.
template <typename Fn>
LookupResult MeasureLookup(const std::string& name, int reps, Fn&& fn) {
  LookupResult r;
  r.name = name;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t ops = fn();
    const auto t1 = std::chrono::steady_clock::now();
    WTPG_CHECK_GT(ops, 0u);
    const double seconds = Seconds(t0, t1);
    const double ns = seconds / static_cast<double>(ops) * 1e9;
    if (rep == 0 || ns < r.ns_per_op) {
      r.ops = ops;
      r.seconds = seconds;
      r.ns_per_op = ns;
    }
  }
  return r;
}

// A 64-node oriented chain plus a tail node holding an unoriented conflict
// edge to every chain member — deep enough that the reverse BFS and the
// critical-path DP cost what they cost mid-run, and exactly the shape
// where a fingerprint hit saves the most. The all-members tail keeps a
// probe/grant target legal from any rotating requester.
constexpr TxnId kChainLen = 64;

Wtpg BuildChain() {
  Wtpg g;
  for (TxnId i = 1; i <= kChainLen + 1; ++i) g.AddNode(i, 1.0);
  for (TxnId i = 1; i < kChainLen; ++i) {
    g.AddConflictEdge(i, i + 1, 1.0, 1.0);
  }
  for (TxnId i = 1; i <= kChainLen; ++i) {
    g.AddConflictEdge(i, kChainLen + 1, 1.0, 1.0);
  }
  for (TxnId i = 1; i < kChainLen; ++i) {
    WTPG_CHECK(g.TryOrient(i, i + 1));
  }
  return g;
}

struct EndToEndResult {
  std::string scheduler;
  uint64_t events = 0;
  double seconds = 0.0;
  double events_per_s = 0.0;
  uint64_t completions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t wtpg_evals = 0;
  uint64_t decision_retries = 0;
  uint64_t block_shortcuts = 0;
};

// One replica at the contended Fig.-8 operating point (see
// micro_sim_core.cc for why the arrival cap, not the horizon, bounds the
// work).
EndToEndResult RunEndToEnd(SchedulerKind kind, uint64_t max_arrivals) {
  SimConfig config;
  config.scheduler = kind;
  config.run.horizon_ms = 100'000'000;
  config.workload.arrival_rate_tps = 1.2;
  config.workload.max_arrivals = max_arrivals;
  Machine machine(config, Pattern::Experiment1(config.machine.num_files));
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = machine.Run();
  const auto t1 = std::chrono::steady_clock::now();
  EndToEndResult r;
  r.scheduler = SchedulerKindName(kind);
  r.events = machine.simulator().events_executed();
  r.seconds = Seconds(t0, t1);
  r.events_per_s = r.seconds > 0.0 ? r.events / r.seconds : 0.0;
  r.completions = stats.completions;
  r.decision_retries = machine.decision_retries();
  r.block_shortcuts = machine.block_shortcuts();
  if (const auto* wtpg_sched =
          dynamic_cast<const WtpgSchedulerBase*>(&machine.scheduler())) {
    r.cache_hits = wtpg_sched->cache_hits();
    r.cache_misses = wtpg_sched->cache_misses();
    r.wtpg_evals = wtpg_sched->wtpg_evals();
  }
  return r;
}

EndToEndResult BestOf(SchedulerKind kind, uint64_t max_arrivals, int reps) {
  EndToEndResult best;
  for (int rep = 0; rep < reps; ++rep) {
    EndToEndResult r = RunEndToEnd(kind, max_arrivals);
    if (rep == 0 || r.events_per_s > best.events_per_s) best = r;
  }
  return best;
}

double HitRate(const EndToEndResult& r) {
  const uint64_t total = r.cache_hits + r.cache_misses;
  return total > 0 ? static_cast<double>(r.cache_hits) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false,
                "tiny iteration counts (ctest perf label / sanitizers)");
  flags.AddString("out-json", "BENCH_decision_cache.json",
                  "JSON result file");
  flags.AddString("out-csv", "micro_decision_cache.csv", "CSV result file");
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
  const int lookup_iters = smoke ? 200'000 : 20'000'000;
  const int graph_iters = smoke ? 20'000 : 400'000;
  const int reps = smoke ? 2 : 5;
  const uint64_t max_arrivals = smoke ? 600 : 5'000;

  CsvWriter csv;
  const Status csv_status = csv.Open(flags.GetString("out-csv"));
  if (!csv_status.ok()) {
    std::fprintf(stderr, "%s\n", csv_status.ToString().c_str());
    return 1;
  }
  csv.WriteHeader({"section", "name", "ops", "seconds", "value", "extra"});

  // -------------------------------------------------------------- lookup --
  // What a hit costs vs what it saves. The cached fingerprints rotate over
  // the chain's transactions so the lookups exercise the map, not one hot
  // entry; the graph-work loops rotate the requester so the per-slot probe
  // cache cannot short-circuit the measurement.
  const std::vector<TxnId> tail_target = {kChainLen + 1};
  std::vector<LookupResult> lookups;

  lookups.push_back(MeasureLookup("cycle_cache_hit", reps, [&] {
    CycleCache cache;
    for (TxnId t = 1; t <= kChainLen; ++t) {
      cache.Store(t, tail_target, /*cycle=*/false, /*growth=*/7,
                  /*shrink=*/3);
    }
    uint64_t found = 0;
    for (int i = 0; i < lookup_iters; ++i) {
      const TxnId t = static_cast<TxnId>(i % kChainLen) + 1;
      if (cache.Lookup(t, tail_target, 7, 3) != nullptr) ++found;
    }
    WTPG_CHECK_EQ(found, static_cast<uint64_t>(lookup_iters));
    return found;
  }));

  lookups.push_back(MeasureLookup("eval_cache_hit", reps, [&] {
    EvalCache cache;
    for (TxnId t = 1; t <= kChainLen; ++t) {
      cache.Store(t, tail_target, /*version=*/11, /*weights=*/5).value_a =
          1.0;
    }
    uint64_t found = 0;
    for (int i = 0; i < lookup_iters; ++i) {
      const TxnId t = static_cast<TxnId>(i % kChainLen) + 1;
      if (cache.Lookup(t, tail_target, 11, 5) != nullptr) ++found;
    }
    WTPG_CHECK_EQ(found, static_cast<uint64_t>(lookup_iters));
    return found;
  }));

  lookups.push_back(MeasureLookup("wouldcycle", reps, [&] {
    Wtpg g = BuildChain();
    uint64_t falses = 0;
    for (int i = 0; i < graph_iters; ++i) {
      const TxnId from = static_cast<TxnId>(i % kChainLen) + 1;
      if (!g.WouldCycle(from, tail_target)) ++falses;
    }
    WTPG_CHECK_EQ(falses, static_cast<uint64_t>(graph_iters));
    return falses;
  }));

  lookups.push_back(MeasureLookup("evaluate_grant", reps, [&] {
    Wtpg g = BuildChain();
    uint64_t evals = 0;
    for (int i = 0; i < graph_iters; ++i) {
      const TxnId from = static_cast<TxnId>(i % kChainLen) + 1;
      if (EvaluateGrant(g, from, {kChainLen + 1}) >= 0.0) ++evals;
    }
    WTPG_CHECK_EQ(evals, static_cast<uint64_t>(graph_iters));
    return evals;
  }));

  TablePrinter lookup_table({"operation", "ops", "ns/op"});
  std::string lookup_json;
  for (const LookupResult& r : lookups) {
    lookup_table.AddRow({r.name, StrCat(r.ops), FormatDouble(r.ns_per_op, 1)});
    JsonWriter row;
    row.Add("name", r.name)
        .Add("ops", r.ops)
        .Add("seconds", r.seconds)
        .Add("ns_per_op", r.ns_per_op);
    if (!lookup_json.empty()) lookup_json += ',';
    lookup_json += row.ToString();
    csv.WriteRow({"lookup", r.name, StrCat(r.ops), FormatDouble(r.seconds, 4),
                  FormatDouble(r.ns_per_op, 2), ""});
  }
  lookup_table.Print();

  // ---------------------------------------------- hit_rate + end_to_end --
  constexpr SchedulerKind kKinds[] = {SchedulerKind::kTwoPl,
                                      SchedulerKind::kC2pl,
                                      SchedulerKind::kGow, SchedulerKind::kLow};
  TablePrinter e2e_table(
      {"scheduler", "events/s", "hit rate", "evals", "retries"});
  std::string hit_json;
  std::string e2e_json;
  double c2pl_cached_events_per_s = 0.0;
  for (SchedulerKind kind : kKinds) {
    const EndToEndResult cached = BestOf(kind, max_arrivals, reps);
    if (kind == SchedulerKind::kC2pl) {
      c2pl_cached_events_per_s = cached.events_per_s;
    }
    e2e_table.AddRow({cached.scheduler, FormatDouble(cached.events_per_s, 0),
                      FormatDouble(HitRate(cached), 3),
                      StrCat(cached.wtpg_evals),
                      StrCat(cached.decision_retries)});
    JsonWriter hit_row;
    hit_row.Add("scheduler", cached.scheduler)
        .Add("cache_hits", cached.cache_hits)
        .Add("cache_misses", cached.cache_misses)
        .Add("hit_rate", HitRate(cached))
        .Add("wtpg_evals", cached.wtpg_evals)
        .Add("decision_retries", cached.decision_retries)
        .Add("block_shortcuts", cached.block_shortcuts);
    if (!hit_json.empty()) hit_json += ',';
    hit_json += hit_row.ToString();
    csv.WriteRow({"hit_rate", cached.scheduler, StrCat(cached.cache_hits),
                  "", FormatDouble(HitRate(cached), 4),
                  StrCat(cached.wtpg_evals)});
    JsonWriter e2e_row;
    e2e_row.Add("scheduler", cached.scheduler)
        .Add("events", cached.events)
        .Add("cached_events_per_s", cached.events_per_s)
        .Add("completions", cached.completions);
    if (!e2e_json.empty()) e2e_json += ',';
    e2e_json += e2e_row.ToString();
    csv.WriteRow({"end_to_end", cached.scheduler, StrCat(cached.events),
                  FormatDouble(cached.seconds, 4),
                  FormatDouble(cached.events_per_s, 0), ""});
  }
  e2e_table.Print();

  // Acceptance floor: cached C2PL at least 5x the pre-cache baseline.
  const double c2pl_floor = 5.0 * kC2plBaselineEventsPerS;
  const bool sanitized = WTPG_BENCH_SANITIZED != 0;
  const bool floor_ok = sanitized || c2pl_cached_events_per_s >= c2pl_floor;
  std::printf("c2pl: %.0f events/s (floor %.0f, baseline %.0f)%s\n",
              c2pl_cached_events_per_s, c2pl_floor, kC2plBaselineEventsPerS,
              sanitized ? " [sanitized: floor not enforced]" : "");

  JsonWriter json;
  json.Add("bench", "decision_cache")
      .Add("smoke", smoke)
      .Add("hardware_threads", ThreadPool::HardwareThreads())
      .Add("sanitized", sanitized)
      .Add("c2pl_baseline_events_per_s", kC2plBaselineEventsPerS)
      .Add("c2pl_cached_events_per_s", c2pl_cached_events_per_s)
      .Add("c2pl_floor_events_per_s", c2pl_floor)
      .AddRaw("lookup", StrCat("[", lookup_json, "]"))
      .AddRaw("hit_rate", StrCat("[", hit_json, "]"))
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
                 c2pl_cached_events_per_s, c2pl_floor);
    return 1;
  }
  return 0;
}
