// Open-system production workload tier (beyond the paper): short
// interactive transactions and long batch scans over a Zipf-skewed universe
// of a million files (workload/openworld.h). The paper's closed-batch
// experiments answer "which scheduler finishes the batch fastest"; this
// experiment asks the production question — which scheduler protects the
// interactive tail (p99) while the batch minority hammers the hot head of
// the Zipf distribution — and whether a batch admission gate
// (machine.batch_mpl) buys tail latency without giving up batch progress.
//
// Each scheduler runs twice: ungated (batch_mpl=0) and gated (batch_mpl
// from WTPG_OW_BATCH_MPL, default 2). Tail percentiles come from the
// bounded-memory P2 sketch (run.tail_sketch), which is what makes the
// long-horizon/large-universe points feasible; the sketch is differentially
// validated against the exact histogram in tests/metrics.
//
// Knobs (on top of the usual WTPG_* bench options; an out-of-range value
// is reported and the default kept):
//   WTPG_OW_FILES      universe size, >= 2            (default 1,000,000)
//   WTPG_OW_THETA      Zipf theta, >= 0               (default 0.9)
//   WTPG_OW_SHARE      interactive share, in (0, 1)   (default 0.9)
//   WTPG_OW_RATE       arrival rate, TPS, > 0         (default 1.0)
//   WTPG_OW_BATCH_MPL  gated-pass batch MPL, >= 0     (default 2)
//   WTPG_OPENWORLD_BIG=1  adds a 10M-file bounded-memory proof point
//                         (LOW, one seed; run alone at the default
//                         horizon it peaks at ~14 MB RSS: per-file state
//                         grows with the files touched, and the metrics
//                         are constant-size)

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "driver/experiments.h"
#include "driver/report.h"
#include "util/string_util.h"

using namespace wtpgsched;

namespace {

uint64_t CounterOr0(const AggregateResult& result, const std::string& name) {
  for (const auto& [key, value] : result.counters) {
    if (key == name) return value;
  }
  return 0;
}

// Per-class aggregate by mix index; zero-filled if the class never
// completed under this scheduler (fully gated, or saturated).
AggregateResult::ClassAgg ClassOrEmpty(const AggregateResult& result,
                                       int workload_class) {
  for (const AggregateResult::ClassAgg& cs : result.per_class) {
    if (cs.workload_class == workload_class) return cs;
  }
  AggregateResult::ClassAgg empty;
  empty.workload_class = workload_class;
  return empty;
}

}  // namespace

int main() {
  const BenchOptions opts = GetBenchOptions();
  OpenWorldSpec spec;
  // Ranges are the ones MakeOpenWorldMix and the machine CHECK.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  const double above_zero = std::nextafter(0.0, 1.0);
  spec.num_files = EnvInt("WTPG_OW_FILES", spec.num_files, 2, kIntMax);
  spec.zipf_theta =
      EnvDouble("WTPG_OW_THETA", spec.zipf_theta, 0.0, kDoubleMax);
  spec.interactive_share =
      EnvDouble("WTPG_OW_SHARE", spec.interactive_share, above_zero,
                std::nextafter(1.0, 0.0));
  const double rate = EnvDouble("WTPG_OW_RATE", 1.0, above_zero, kDoubleMax);
  const int batch_mpl = EnvInt("WTPG_OW_BATCH_MPL", 2, 0, kIntMax);

  PrintBanner(StrCat(
      "Open-world tier: interactive tail vs. batch interference "
      "(files=", spec.num_files, ", theta=", FormatDouble(spec.zipf_theta, 2),
      ", interactive share=", FormatDouble(spec.interactive_share, 2),
      ", lambda=", FormatDouble(rate, 2), " TPS)"));
  std::printf(
      "Class 0 = interactive (r,w; priority 1); class 1 = batch scan\n"
      "(3r+w at %gx the cost; priority 0, gated at batch_mpl=%d in the\n"
      "gated pass). Percentiles: bounded-memory P2 sketch.\n\n",
      OpenWorldSpec{}.batch_cost, batch_mpl);

  TablePrinter long_table(
      {"scheduler", "batch_mpl", "mean_rt_s", "tput_tps", "completions",
       "gated", "int_completions", "int_mean_s", "int_p50_s", "int_p95_s",
       "int_p99_s", "batch_completions", "batch_mean_s", "batch_p50_s",
       "batch_p95_s", "batch_p99_s"});

  // Headline: interactive p99 per scheduler, ungated vs gated.
  TablePrinter headline({"scheduler", "int_p99_s (mpl=0)",
                         StrCat("int_p99_s (mpl=", batch_mpl, ")"),
                         "batch_tput (mpl=0)",
                         StrCat("batch_tput (mpl=", batch_mpl, ")")});

  std::vector<std::vector<OpenWorldRun>> passes;
  for (int mpl : {0, batch_mpl}) {
    passes.push_back(RunOpenWorld(spec, rate, mpl, /*sketch=*/true, opts));
    for (const OpenWorldRun& run : passes.back()) {
      const AggregateResult& r = run.result;
      const auto inter = ClassOrEmpty(r, 0);
      const auto batch = ClassOrEmpty(r, 1);
      long_table.AddRow({SchedulerLabel(run.kind), StrCat(mpl),
                         FormatDouble(r.mean_response_s, 2),
                         FormatDouble(r.throughput_tps, 3),
                         FormatDouble(r.completions, 1),
                         StrCat(CounterOr0(r, "admission.gated")),
                         FormatDouble(inter.completions, 1),
                         FormatDouble(inter.mean_response_s, 2),
                         FormatDouble(inter.p50_response_s, 2),
                         FormatDouble(inter.p95_response_s, 2),
                         FormatDouble(inter.p99_response_s, 2),
                         FormatDouble(batch.completions, 1),
                         FormatDouble(batch.mean_response_s, 2),
                         FormatDouble(batch.p50_response_s, 2),
                         FormatDouble(batch.p95_response_s, 2),
                         FormatDouble(batch.p99_response_s, 2)});
      std::fflush(stdout);
    }
  }

  const double window_s = opts.horizon_ms / 1000.0;
  for (size_t i = 0; i < passes[0].size(); ++i) {
    const auto& ungated = passes[0][i];
    const auto& gated = passes[1][i];
    headline.AddRow(
        {SchedulerLabel(ungated.kind),
         FmtSeconds(ClassOrEmpty(ungated.result, 0).p99_response_s),
         FmtSeconds(ClassOrEmpty(gated.result, 0).p99_response_s),
         FmtTps(ClassOrEmpty(ungated.result, 1).completions / window_s),
         FmtTps(ClassOrEmpty(gated.result, 1).completions / window_s)});
  }

  std::printf("Per-scheduler, per-class detail:\n");
  long_table.Print();
  std::printf("\nInteractive p99 and batch throughput, ungated vs gated:\n");
  headline.Print();

  const std::string csv = CsvPath(opts, "openworld_tail");
  if (!csv.empty() && long_table.WriteCsv(csv).ok()) {
    std::printf("CSV: %s\n", csv.c_str());
  }

  // Bounded-memory proof at 10M files: the per-file state (lock table and
  // pending index) grows with the files the run touches, not with the
  // universe, and the metrics path is O(1) per stream regardless of
  // completions — so a multi-million-file, long-horizon point costs about
  // what a small universe does.
  if (EnvInt("WTPG_OPENWORLD_BIG", 0, 0, 1) == 1) {
    OpenWorldSpec big_spec = spec;
    big_spec.num_files = 10'000'000;
    BenchOptions big_opts = opts;
    PrintBanner("Bounded-memory proof: 10M-file universe (LOW only)");
    SimConfig config = MakeConfig(SchedulerKind::kLow, big_spec.num_files,
                                  /*dd=*/1, rate);
    config.workload.zipf_theta = big_spec.zipf_theta;
    config.machine.batch_mpl = batch_mpl;
    config.run.tail_metrics = true;
    config.run.tail_sketch = true;
    config.run.horizon_ms = big_opts.horizon_ms;
    const AggregateResult r =
        RunAggregate(config, MakeOpenWorldMix(big_spec), 1, big_opts.jobs);
    std::printf("%s\n", r.ToJson().c_str());
  }
  return 0;
}
