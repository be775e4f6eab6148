// wtpg_sim — command-line driver for the batch-transaction scheduling
// simulator. Runs one configuration and prints the run statistics; the
// workload can be one of the paper's experiments or an arbitrary pattern in
// the paper's notation.
//
// Examples:
//   wtpg_sim --scheduler=low --rate=0.8 --dd=2
//   wtpg_sim --scheduler=gow --workload=exp2 --rate=1.0
//   wtpg_sim --scheduler=c2pl --mpl=8 --rate=1.2
//            --pattern="x(F1:1) -> x(F2:5) -> w(F1:0.2) -> w(F2:1)"
//   wtpg_sim --scheduler=2pl --verify   # serializability check at the end

#include <cstdio>

#include "analysis/serializability.h"
#include "driver/sim_run.h"
#include "machine/machine.h"
#include "sched/c2pl.h"
#include "telemetry/telemetry_export.h"
#include "trace/trace_export.h"
#include "util/common_flags.h"
#include "util/logging.h"
#include "workload/pattern_parser.h"
#include "wtpg/dot.h"

using namespace wtpgsched;

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonToolFlags(flags);
  AddTraceFlags(flags);
  AddTelemetryFlags(flags);
  AddProgressFlags(flags);
  AddFaultFlags(flags);
  flags.AddString("workload", "exp1", "exp1|exp2 (ignored with --pattern)");
  flags.AddString("pattern", "", "pattern notation, e.g. 'r(A:1) -> w(B:2)'");
  flags.AddInt("num-files", 16, "number of files (locking granules)");
  flags.AddInt("num-nodes", 8, "number of data-processing nodes");
  flags.AddInt("dd", 1, "degree of declustering");
  flags.AddDouble("rate", 0.8, "arrival rate (TPS)");
  flags.AddDouble("horizon-ms", 2'000'000, "simulated milliseconds");
  flags.AddDouble("warmup-ms", 0, "measurement warmup (ms)");
  flags.AddDouble("sigma", 0.0, "declaration error stddev (Experiment 3)");
  flags.AddInt("mpl", 0, "multiprogramming limit (0 = unlimited)");
  flags.AddDouble("zipf-theta", 0.0,
                  "Zipf skew for pattern file draws (0 = uniform)");
  flags.AddInt("batch-mpl", 0,
               "admission limit on priority-0 transactions (0 = off)");
  flags.AddBool("tail", false,
                "report p50/p95/p99 and per-class percentiles");
  flags.AddBool("tail-sketch", false,
                "use the bounded-memory P2 sketch for percentiles "
                "(implies --tail)");
  flags.AddInt("low-k", 2, "LOW's conflict bound K");
  flags.AddInt("max-arrivals", 0, "stop arrivals after N transactions (0 = off)");
  flags.AddBool("verify", false, "check conflict-serializability at the end");
  flags.AddString("dot-out", "",
                  "dump the scheduler's WTPG as Graphviz DOT to this file");
  flags.AddDouble("dot-at-ms", 100'000,
                  "simulated time of the WTPG snapshot for --dot-out");

  const int standard = HandleStandardFlags(flags, argc, argv);
  if (standard >= 0) return standard;
  ApplyProgressFlags(flags);

  SimConfig config;
  int mpl = 0;
  int num_seeds = 1;
  int jobs = 0;
  if (!LoadConfig(flags, &config) || !GetIntFlag(flags, "mpl", &mpl) ||
      !GetIntFlag(flags, "seeds", &num_seeds, 1) ||
      !GetIntFlag(flags, "jobs", &jobs, 0)) {
    return 2;
  }
  // The field list leaves these flags out, as each means more than its
  // field: --mpl spells "unlimited" 0 and applies only when > 0, and
  // --tail-sketch implies --tail. Off, they keep the config's values.
  if (mpl > 0) config.machine.mpl = mpl;
  if (flags.GetBool("tail")) config.run.tail_metrics = true;
  if (flags.GetBool("tail-sketch")) {
    config.run.tail_metrics = true;
    config.run.tail_sketch = true;
  }
  if (flags.GetInt("trace-capacity") < 1) {
    std::fprintf(stderr, "--trace-capacity must be >= 1\n");
    return 2;
  }
  const std::string trace_jsonl = flags.GetString("trace-jsonl");
  if (!trace_jsonl.empty()) {
    config.run.trace_enabled = true;
    config.run.trace_capacity =
        static_cast<uint64_t>(flags.GetInt("trace-capacity"));
  }
  // A telemetry artifact requested without --telemetry-ms samples every 10 s.
  const std::string telemetry_csv = flags.GetString("telemetry-csv");
  if (flags.GetDouble("telemetry-ms") > 0.0 || !telemetry_csv.empty()) {
    config.run.telemetry_sample_ms = flags.GetDouble("telemetry-ms") > 0.0
                                         ? flags.GetDouble("telemetry-ms")
                                         : 10'000.0;
    if (!GetIntFlag(flags, "telemetry-capacity",
                    &config.run.telemetry_capacity)) {
      return 2;
    }
  }
  Status status = config.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", status.ToString().c_str());
    return 2;
  }

  Pattern pattern = Pattern::Experiment1(config.machine.num_files);
  if (!flags.GetString("pattern").empty()) {
    StatusOr<Pattern> parsed =
        ParsePattern(flags.GetString("pattern"), config.machine.num_files);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --pattern: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    pattern = std::move(parsed).value();
  } else if (flags.GetString("workload") == "exp2") {
    pattern = Pattern::Experiment2();
  } else if (flags.GetString("workload") != "exp1") {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 flags.GetString("workload").c_str());
    return 2;
  }

  // Multi-seed aggregate mode: fan the replicas across workers and report
  // the cross-seed averages. The per-run artifacts below (trace, DOT
  // snapshot, telemetry series, serializability log) are single-run
  // concepts.
  if (num_seeds > 1) {
    if (!trace_jsonl.empty() || !flags.GetString("dot-out").empty() ||
        !telemetry_csv.empty() || flags.GetBool("verify")) {
      std::fprintf(stderr,
                   "--seeds > 1 is incompatible with --trace-*/--dot-out/"
                   "--telemetry-csv/--verify (single-run outputs)\n");
      return 2;
    }
    const AggregateResult agg = RunAggregate(config, pattern, num_seeds, jobs);
    if (flags.GetBool("json")) {
      std::printf("%s\n", agg.ToJson().c_str());
      return 0;
    }
    std::printf("scheduler          %s\n",
                SchedulerKindName(config.scheduler));
    std::printf("seeds              %d (base seed %llu)\n", agg.num_seeds,
                static_cast<unsigned long long>(config.run.seed));
    std::printf("mean response      %.2f s\n", agg.mean_response_s);
    std::printf("throughput         %.3f TPS\n", agg.throughput_tps);
    std::printf("completions        %.1f per seed\n", agg.completions);
    std::printf("blocked/delayed    %.1f / %.1f\n", agg.blocked, agg.delayed);
    std::printf("start rejections   %.1f\n", agg.start_rejections);
    std::printf("restarts           %.1f\n", agg.restarts);
    std::printf("CN utilization     %.1f%%\n", 100.0 * agg.cn_utilization);
    std::printf("DPN utilization    mean %.1f%%\n",
                100.0 * agg.mean_dpn_utilization);
    return 0;
  }

  Machine machine(config, std::move(pattern));

  // Optional WTPG snapshot: schedule a dump before running. GOW and LOW
  // keep their graph; C2PL builds one from its derived precedence.
  std::string dot_snapshot;
  if (!flags.GetString("dot-out").empty()) {
    const Scheduler* scheduler = &machine.scheduler();
    const auto* graph_scheduler =
        dynamic_cast<const WtpgSchedulerBase*>(scheduler);
    const auto* c2pl = dynamic_cast<const C2plScheduler*>(scheduler);
    if (graph_scheduler == nullptr && c2pl == nullptr) {
      std::fprintf(stderr,
                   "--dot-out requires a WTPG scheduler (c2pl/gow/low)\n");
      return 2;
    }
    machine.simulator().ScheduleAt(
        MsToTime(flags.GetDouble("dot-at-ms")),
        [graph_scheduler, c2pl, &dot_snapshot] {
          dot_snapshot =
              ToDot(graph_scheduler != nullptr ? graph_scheduler->graph()
                                               : c2pl->PrecedenceSnapshot(),
                    "WTPG snapshot");
        });
  }

  const RunStats stats = machine.Run();

  // Sampled gauge series ride along inside the trace files as counter
  // tracks; runs without telemetry keep the trace byte-identical.
  std::vector<GaugeTrack> gauge_tracks;
  const std::vector<GaugeTrack>* gauges = nullptr;
  if (machine.telemetry() != nullptr) {
    gauge_tracks = ToGaugeTracks(machine.telemetry()->store());
    gauges = &gauge_tracks;
  }

  if (!trace_jsonl.empty()) {
    TraceMeta meta;
    meta.scheduler = machine.scheduler().name();
    meta.num_nodes = config.machine.num_nodes;
    meta.num_files = config.machine.num_files;
    meta.dd = config.machine.dd;
    meta.seed = config.run.seed;
    const Status written = WriteJsonlTrace(
        machine.trace().Snapshot(), meta, stats.counters,
        machine.trace().dropped(), trace_jsonl, gauges);
    if (!written.ok()) {
      std::fprintf(stderr, "trace-jsonl: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  if (!telemetry_csv.empty()) {
    if (machine.telemetry() == nullptr) {
      std::fprintf(stderr, "telemetry: sampling is disabled\n");
      return 2;
    }
    const Status written =
        WriteTelemetryCsv(machine.telemetry()->store(), telemetry_csv);
    if (!written.ok()) {
      std::fprintf(stderr, "telemetry-csv: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  if (!flags.GetString("dot-out").empty()) {
    std::FILE* f = std::fopen(flags.GetString("dot-out").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   flags.GetString("dot-out").c_str());
      return 1;
    }
    std::fputs(dot_snapshot.c_str(), f);
    std::fclose(f);
    std::printf("WTPG snapshot -> %s (at %.0f ms)\n",
                flags.GetString("dot-out").c_str(),
                flags.GetDouble("dot-at-ms"));
  }

  if (flags.GetBool("json")) {
    std::printf("%s\n", stats.ToJson().c_str());
    if (flags.GetBool("verify")) {
      const SerializabilityResult result =
          CheckConflictSerializability(machine.schedule_log());
      if (!result.serializable && config.scheduler != SchedulerKind::kNodc) {
        return 1;
      }
    }
    return 0;
  }

  std::printf("scheduler          %s\n", machine.scheduler().name().c_str());
  std::printf("simulated          %.0f s\n", stats.sim_seconds);
  std::printf("arrivals           %llu\n",
              static_cast<unsigned long long>(stats.arrivals));
  std::printf("completions        %llu (in window: %llu)\n",
              static_cast<unsigned long long>(stats.completions),
              static_cast<unsigned long long>(stats.completions_measured));
  std::printf("in flight at end   %llu\n",
              static_cast<unsigned long long>(stats.in_flight_at_end));
  std::printf("mean response      %.2f s (median %.2f, p95 %.2f)\n",
              stats.mean_response_s, stats.median_response_s,
              stats.p95_response_s);
  if (stats.tail_metrics) {
    std::printf("p99 response       %.2f s (%s)\n", stats.p99_response_s,
                stats.sketch_quantiles ? "P2 sketch" : "exact");
    for (const RunStats::ClassStats& cs : stats.per_class) {
      std::printf("class %d            %llu done, mean %.2f s, p50 %.2f, "
                  "p95 %.2f, p99 %.2f\n",
                  cs.workload_class,
                  static_cast<unsigned long long>(cs.completions),
                  cs.mean_response_s, cs.median_response_s,
                  cs.p95_response_s, cs.p99_response_s);
    }
  }
  std::printf("throughput         %.3f TPS\n", stats.throughput_tps);
  std::printf("blocked/delayed    %llu / %llu\n",
              static_cast<unsigned long long>(stats.blocked),
              static_cast<unsigned long long>(stats.delayed));
  std::printf("start rejections   %llu\n",
              static_cast<unsigned long long>(stats.start_rejections));
  std::printf("restarts           %llu\n",
              static_cast<unsigned long long>(stats.restarts));
  std::printf("CN utilization     %.1f%%\n", 100.0 * stats.cn_utilization);
  std::printf("DPN utilization    mean %.1f%%, max %.1f%%\n",
              100.0 * stats.mean_dpn_utilization,
              100.0 * stats.max_dpn_utilization);

  if (flags.GetBool("verify")) {
    const SerializabilityResult result =
        CheckConflictSerializability(machine.schedule_log());
    std::printf("serializability    %s\n", result.ToString().c_str());
    if (!result.serializable && config.scheduler != SchedulerKind::kNodc) {
      return 1;
    }
  }
  return 0;
}
