// wtpg_sweep — the experiment harness as a command-line tool: arrival-rate
// sweeps, the "throughput at a response-time target" operating-point search,
// C2PL MPL tuning, and fault-churn sweeps for any scheduler/workload
// combination, with CSV output.
//
// Examples:
//   wtpg_sweep --mode=rates --scheduler=low --rates=0.2,0.4,0.8,1.2
//   wtpg_sweep --mode=rt-target --scheduler=gow --target-s=70 --dd=2
//   wtpg_sweep --mode=mpl --scheduler=c2pl --rate=1.2
//   wtpg_sweep --mode=faults --scheduler=low --rate=1.0
//              --fault-mttfs-ms=0,400000,100000 --fault-mttr-ms=20000
//   wtpg_sweep --mode=openworld --ow-files=1000000 --ow-theta=0.9
//              --batch-mpl=2 --rate=1.0

#include <cstdio>
#include <cstdlib>

#include "driver/experiments.h"
#include "driver/report.h"
#include "driver/sweep.h"
#include "machine/config.h"
#include "util/common_flags.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload/pattern_parser.h"

using namespace wtpgsched;

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonToolFlags(flags);
  AddProgressFlags(flags);
  AddFaultFlags(flags);
  flags.AddString("mode", "rates", "rates|rt-target|mpl|faults|openworld");
  flags.AddString("workload", "exp1", "exp1|exp2");
  flags.AddString("pattern", "", "pattern notation (overrides --workload)");
  flags.AddString("rates", "0.2,0.4,0.6,0.8,1.0,1.2,1.4",
                  "rates for --mode=rates");
  flags.AddDouble("rate", 1.2, "fixed rate for --mode=mpl / --mode=faults");
  flags.AddDouble("target-s", 70.0, "response-time target (rt-target mode)");
  flags.AddInt("num-files", 16, "number of files");
  flags.AddInt("dd", 1, "degree of declustering");
  flags.AddDouble("sigma", 0.0, "declaration error stddev");
  flags.AddDouble("horizon-ms", 2'000'000, "simulated milliseconds");
  flags.AddInt("iters", 9, "bisection iterations (rt-target mode)");
  flags.AddString("fault-mttfs-ms", "0,400000,200000,100000,50000",
                  "DPN MTTF values for --mode=faults (0 = fault-free)");
  flags.AddInt("ow-files", 1'000'000,
               "openworld mode: Zipf universe size (overrides --num-files)");
  flags.AddDouble("ow-theta", 0.9, "openworld mode: Zipf skew theta");
  flags.AddDouble("ow-share", 0.9,
                  "openworld mode: interactive arrival share in (0,1)");
  flags.AddInt("batch-mpl", 0,
               "openworld mode: batch admission limit (0 = ungated)");
  flags.AddString("csv", "", "also write the table to this CSV file");

  const int standard = HandleStandardFlags(flags, argc, argv);
  if (standard >= 0) return standard;
  ApplyProgressFlags(flags);

  // --batch-mpl is the openworld mode's argument, not machine.batch_mpl.
  SimConfig config;
  int seeds = 1;
  int jobs = 0;
  int iters = 0;
  int ow_files = 0;
  int batch_mpl = 0;
  if (!LoadConfig(flags, &config, {"batch-mpl"}) ||
      !GetIntFlag(flags, "seeds", &seeds) ||
      !GetIntFlag(flags, "jobs", &jobs) ||
      !GetIntFlag(flags, "iters", &iters) ||
      !GetIntFlag(flags, "ow-files", &ow_files) ||
      !GetIntFlag(flags, "batch-mpl", &batch_mpl)) {
    return 2;
  }
  // The overlaid config, and below the config of every swept value, is
  // validated before anything runs.
  const auto invalid = [](const SimConfig& c) {
    const Status status = c.Validate();
    if (status.ok()) return false;
    std::fprintf(stderr, "bad configuration: %s\n", status.ToString().c_str());
    return true;
  };
  if (invalid(config)) return 2;

  Pattern pattern = flags.GetString("workload") == "exp2"
                        ? Pattern::Experiment2()
                        : Pattern::Experiment1(config.machine.num_files);
  if (!flags.GetString("pattern").empty()) {
    StatusOr<Pattern> parsed =
        ParsePattern(flags.GetString("pattern"), config.machine.num_files);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --pattern: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    pattern = std::move(parsed).value();
  }

  const bool json = flags.GetBool("json");
  const std::string mode = flags.GetString("mode");
  TablePrinter* table = nullptr;

  if (mode == "rates") {
    std::vector<double> rates;
    const Status parsed =
        ParseDoubleList(flags.GetString("rates"), ',', &rates);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--rates: %s\n", parsed.ToString().c_str());
      return 2;
    }
    if (rates.empty()) {
      std::fprintf(stderr, "--rates is empty\n");
      return 2;
    }
    for (double rate : rates) {
      SimConfig point = config;
      point.workload.arrival_rate_tps = rate;
      if (invalid(point)) return 2;
    }
    static TablePrinter t({"lambda(tps)", "mean RT(s)", "median(s)",
                           "tput(tps)", "blocked", "delayed", "restarts",
                           "seeds"});
    for (const SweepPoint& p :
         SweepArrivalRates(config, pattern, rates, seeds, jobs)) {
      t.AddRow({FmtTps(p.lambda_tps), FmtSeconds(p.result.mean_response_s),
                FmtSeconds(0.0), FmtTps(p.result.throughput_tps),
                FormatDouble(p.result.blocked, 0),
                FormatDouble(p.result.delayed, 0),
                FormatDouble(p.result.restarts, 0),
                StrCat(p.result.num_seeds)});
      if (json) std::printf("%s\n", p.result.ToJson().c_str());
    }
    table = &t;
  } else if (mode == "rt-target") {
    const OperatingPoint op = FindRateForResponseTime(
        config, pattern, flags.GetDouble("target-s"), 0.05, 1.6, seeds, iters,
        2.5, jobs);
    static TablePrinter t(
        {"lambda(tps)", "mean RT(s)", "tput(tps)", "seeds", "converged"});
    t.AddRow({FmtTps(op.lambda_tps), FmtSeconds(op.mean_response_s),
              FmtTps(op.throughput_tps), StrCat(op.num_seeds),
              op.converged ? "yes" : "no"});
    table = &t;
  } else if (mode == "mpl") {
    if (config.scheduler != SchedulerKind::kC2pl) {
      std::fprintf(stderr, "--mode=mpl requires --scheduler=c2pl\n");
      return 2;
    }
    const MplChoice choice =
        TuneMpl(config, pattern, DefaultMplCandidates(), seeds, jobs);
    static TablePrinter t({"best mpl", "mean RT(s)", "tput(tps)", "seeds"});
    t.AddRow({StrCat(choice.mpl), FmtSeconds(choice.result.mean_response_s),
              FmtTps(choice.result.throughput_tps),
              StrCat(choice.result.num_seeds)});
    if (json) std::printf("%s\n", choice.result.ToJson().c_str());
    table = &t;
  } else if (mode == "faults") {
    std::vector<double> mttfs;
    const Status parsed =
        ParseDoubleList(flags.GetString("fault-mttfs-ms"), ',', &mttfs);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--fault-mttfs-ms: %s\n",
                   parsed.ToString().c_str());
      return 2;
    }
    if (mttfs.empty()) {
      std::fprintf(stderr, "--fault-mttfs-ms is empty\n");
      return 2;
    }
    for (double mttf : mttfs) {
      SimConfig point = config;
      point.fault.dpn_mttf_ms = mttf;
      if (invalid(point)) return 2;
    }
    static TablePrinter t({"mttf(s)", "mean RT(s)", "tput(tps)",
                           "completions", "restarts", "seeds"});
    for (const FaultSweepPoint& p :
         SweepFaultRate(config, pattern, mttfs, seeds, jobs)) {
      t.AddRow({p.mttf_ms <= 0.0 ? std::string("inf")
                                 : FormatDouble(p.mttf_ms / 1000.0, 0),
                FmtSeconds(p.result.mean_response_s),
                FmtTps(p.result.throughput_tps),
                FormatDouble(p.result.completions, 1),
                FormatDouble(p.result.restarts, 1),
                StrCat(p.result.num_seeds)});
      if (json) std::printf("%s\n", p.result.ToJson().c_str());
    }
    table = &t;
  } else if (mode == "openworld") {
    // All six paper schedulers over the two-class Zipf mix (the --scheduler
    // flag is ignored here, like --workload/--pattern: the mode owns the
    // workload). Tail percentiles come from the bounded-memory P2 sketch.
    OpenWorldSpec spec;
    spec.num_files = ow_files;
    spec.zipf_theta = flags.GetDouble("ow-theta");
    spec.interactive_share = flags.GetDouble("ow-share");
    BenchOptions opts;
    opts.seeds = seeds;
    opts.jobs = jobs;
    opts.horizon_ms = config.run.horizon_ms;
    opts.csv_dir.clear();
    static TablePrinter t({"scheduler", "mean RT(s)", "tput(tps)",
                           "int p50(s)", "int p95(s)", "int p99(s)",
                           "batch p99(s)", "seeds"});
    for (const OpenWorldRun& run :
         RunOpenWorld(spec, config.workload.arrival_rate_tps, batch_mpl,
                      /*sketch=*/true, opts)) {
      AggregateResult::ClassAgg inter, batch;
      for (const AggregateResult::ClassAgg& cs : run.result.per_class) {
        if (cs.workload_class == 0) inter = cs;
        if (cs.workload_class == 1) batch = cs;
      }
      t.AddRow({SchedulerLabel(run.kind),
                FmtSeconds(run.result.mean_response_s),
                FmtTps(run.result.throughput_tps),
                FmtSeconds(inter.p50_response_s),
                FmtSeconds(inter.p95_response_s),
                FmtSeconds(inter.p99_response_s),
                FmtSeconds(batch.p99_response_s),
                StrCat(run.result.num_seeds)});
      if (json) std::printf("%s\n", run.result.ToJson().c_str());
    }
    table = &t;
  } else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }

  table->Print();
  if (!flags.GetString("csv").empty()) {
    const Status written = table->WriteCsv(flags.GetString("csv"));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
