#include <sstream>

#include <gtest/gtest.h>

#include "driver/experiments.h"
#include "driver/report.h"
#include "driver/sim_run.h"
#include "driver/sweep.h"
#include "test_temp_path.h"

namespace wtpgsched {
namespace {

SimConfig QuickConfig(SchedulerKind kind) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.run.horizon_ms = 300'000;
  c.run.seed = 3;
  return c;
}

TEST(SimRunTest, AggregateAveragesSeeds) {
  SimConfig c = QuickConfig(SchedulerKind::kNodc);
  c.workload.arrival_rate_tps = 0.5;
  const AggregateResult one = RunAggregate(c, Pattern::Experiment1(16), 1);
  const AggregateResult three = RunAggregate(c, Pattern::Experiment1(16), 3);
  EXPECT_EQ(one.num_seeds, 1);
  EXPECT_EQ(three.num_seeds, 3);
  EXPECT_GT(three.mean_response_s, 0.0);
  EXPECT_GT(three.throughput_tps, 0.3);
}

TEST(SimRunTest, SameConfigSameAggregate) {
  SimConfig c = QuickConfig(SchedulerKind::kLow);
  c.workload.arrival_rate_tps = 0.5;
  const AggregateResult a = RunAggregate(c, Pattern::Experiment1(16), 2);
  const AggregateResult b = RunAggregate(c, Pattern::Experiment1(16), 2);
  EXPECT_DOUBLE_EQ(a.mean_response_s, b.mean_response_s);
}

TEST(SweepTest, ResponseTimeMonotoneInRate) {
  SimConfig c = QuickConfig(SchedulerKind::kNodc);
  const auto points = SweepArrivalRates(c, Pattern::Experiment1(16),
                                        {0.2, 0.6, 1.0}, 1);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].result.mean_response_s,
            points[1].result.mean_response_s);
  EXPECT_LT(points[1].result.mean_response_s,
            points[2].result.mean_response_s);
}

TEST(SweepTest, FindRateBracketsTarget) {
  SimConfig c = QuickConfig(SchedulerKind::kNodc);
  const OperatingPoint op = FindRateForResponseTime(
      c, Pattern::Experiment1(16), /*target_s=*/30.0, 0.1, 1.6,
      /*num_seeds=*/1, /*iters=*/8, /*tol_s=*/3.0);
  EXPECT_TRUE(op.converged);
  EXPECT_GT(op.lambda_tps, 0.5);
  EXPECT_LT(op.lambda_tps, 1.4);
  EXPECT_NEAR(op.mean_response_s, 30.0, 15.0);
}

TEST(SweepTest, TargetBelowCurveReturnsLowBracket) {
  SimConfig c = QuickConfig(SchedulerKind::kNodc);
  // Even an idle system takes > 7 s; a 1 s target is unreachable.
  const OperatingPoint op = FindRateForResponseTime(
      c, Pattern::Experiment1(16), 1.0, 0.1, 1.0, 1, 6, 1.0);
  EXPECT_FALSE(op.converged);
  EXPECT_DOUBLE_EQ(op.lambda_tps, 0.1);
}

TEST(SweepTest, TargetAboveCurveReturnsHighBracket) {
  SimConfig c = QuickConfig(SchedulerKind::kNodc);
  const OperatingPoint op = FindRateForResponseTime(
      c, Pattern::Experiment1(16), 10'000.0, 0.1, 0.5, 1, 6, 1.0);
  EXPECT_FALSE(op.converged);
  EXPECT_DOUBLE_EQ(op.lambda_tps, 0.5);
}

TEST(SweepTest, TuneMplPicksBestResponseTime) {
  SimConfig c = QuickConfig(SchedulerKind::kC2pl);
  c.workload.arrival_rate_tps = 1.0;
  const MplChoice choice =
      TuneMpl(c, Pattern::Experiment1(16), {1, 4, 1000}, 1);
  EXPECT_TRUE(choice.mpl == 1 || choice.mpl == 4 || choice.mpl == 1000);
  // The tuned choice can't be worse than plain C2PL (mpl = 1000 here).
  SimConfig raw = c;
  raw.machine.mpl = 1000;
  const AggregateResult raw_result =
      RunAggregate(raw, Pattern::Experiment1(16), 1);
  EXPECT_LE(choice.result.mean_response_s, raw_result.mean_response_s + 1e-9);
}

TEST(ExperimentsTest, PaperSchedulerLineup) {
  const auto kinds = PaperSchedulers();
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds.front(), SchedulerKind::kNodc);
  EXPECT_EQ(SchedulerLabel(kinds[1]), "ASL");
}

TEST(ExperimentsTest, MakeConfigAppliesOverrides) {
  const SimConfig c = MakeConfig(SchedulerKind::kGow, 32, 4, 1.2, 0.5);
  EXPECT_EQ(c.scheduler, SchedulerKind::kGow);
  EXPECT_EQ(c.machine.num_files, 32);
  EXPECT_EQ(c.machine.dd, 4);
  EXPECT_DOUBLE_EQ(c.workload.arrival_rate_tps, 1.2);
  EXPECT_DOUBLE_EQ(c.workload.error_sigma, 0.5);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ReportTest, TablePrinterAligns) {
  TablePrinter table({"sched", "tps"});
  table.AddRow({"NODC", "1.04"});
  table.AddRow({"C2PL", "0.35"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("NODC"), std::string::npos);
  EXPECT_NE(text.find("| sched |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(FmtTps(1.041), "1.04");
  EXPECT_EQ(FmtSeconds(387.2), "387");
  EXPECT_EQ(FmtSeconds(47.25), "47.2");
  EXPECT_EQ(FmtSpeedup(13.39), "13.39");
  EXPECT_EQ(FmtPercent(0.945), "94.5%");
}

TEST(ReportTest, CsvRoundTrip) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  const std::string path = UniqueTempPath("report_test.csv");
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wtpgsched
