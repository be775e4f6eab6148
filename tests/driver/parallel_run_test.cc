// Determinism tests for the parallel experiment harness: for any jobs value
// the batch runner must produce exactly the serial path's aggregates
// (operator==, field by field), and concurrent replicas must not bleed
// state into each other.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/experiments.h"
#include "driver/sim_run.h"
#include "driver/sweep.h"
#include "machine/machine.h"

namespace wtpgsched {
namespace {

SimConfig QuickConfig(SchedulerKind kind, double rate = 0.5) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.run.horizon_ms = 200'000;
  c.workload.arrival_rate_tps = rate;
  c.run.seed = 3;
  return c;
}

const Pattern& TestPattern() {
  static const Pattern* pattern = new Pattern(Pattern::Experiment1(16));
  return *pattern;
}

TEST(ParallelRunTest, AggregateByteIdenticalAcrossJobCounts) {
  const SimConfig c = QuickConfig(SchedulerKind::kLow);
  const AggregateResult serial =
      RunAggregate(c, TestPattern(), /*num_seeds=*/4, /*jobs=*/1);
  for (int jobs : {2, 8}) {
    const AggregateResult parallel = RunAggregate(c, TestPattern(), 4, jobs);
    EXPECT_TRUE(serial == parallel) << "jobs=" << jobs;
  }
}

TEST(ParallelRunTest, ReplicasReturnInSubmissionOrder) {
  std::vector<SimConfig> configs;
  for (int i = 0; i < 6; ++i) {
    SimConfig c = QuickConfig(SchedulerKind::kNodc);
    c.run.seed = 10 + static_cast<uint64_t>(i);
    configs.push_back(c);
  }
  const std::vector<RunStats> batch = RunReplicas(configs, TestPattern(), 4);
  ASSERT_EQ(batch.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const RunStats solo = RunSimulation(configs[i], TestPattern());
    EXPECT_TRUE(batch[i] == solo) << "replica " << i;
  }
}

TEST(ParallelRunTest, SweepIdenticalAcrossJobCounts) {
  const SimConfig c = QuickConfig(SchedulerKind::kGow);
  const std::vector<double> rates = {0.3, 0.6, 0.9};
  const auto serial = SweepArrivalRates(c, TestPattern(), rates, 2, 1);
  const auto parallel = SweepArrivalRates(c, TestPattern(), rates, 2, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].lambda_tps, parallel[i].lambda_tps);
    EXPECT_TRUE(serial[i].result == parallel[i].result) << "rate " << i;
  }
}

TEST(ParallelRunTest, TuneMplIdenticalAcrossJobCounts) {
  SimConfig c = QuickConfig(SchedulerKind::kC2pl, /*rate=*/1.0);
  const MplChoice serial = TuneMpl(c, TestPattern(), {1, 4, 16}, 2, 1);
  const MplChoice parallel = TuneMpl(c, TestPattern(), {1, 4, 16}, 2, 8);
  EXPECT_EQ(serial.mpl, parallel.mpl);
  EXPECT_TRUE(serial.result == parallel.result);
}

TEST(ParallelRunTest, FindRateIdenticalAndReportsSeeds) {
  const SimConfig c = QuickConfig(SchedulerKind::kNodc);
  const OperatingPoint serial = FindRateForResponseTime(
      c, TestPattern(), /*target_s=*/30.0, 0.1, 1.6, /*num_seeds=*/2,
      /*iters=*/5, /*tol_s=*/3.0, /*jobs=*/1);
  const OperatingPoint parallel = FindRateForResponseTime(
      c, TestPattern(), 30.0, 0.1, 1.6, 2, 5, 3.0, /*jobs=*/8);
  EXPECT_DOUBLE_EQ(serial.lambda_tps, parallel.lambda_tps);
  EXPECT_DOUBLE_EQ(serial.mean_response_s, parallel.mean_response_s);
  EXPECT_DOUBLE_EQ(serial.throughput_tps, parallel.throughput_tps);
  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.num_seeds, 2);
  EXPECT_EQ(parallel.num_seeds, 2);
}

TEST(ParallelRunTest, NonConvergedBracketsReportSeedCount) {
  const SimConfig c = QuickConfig(SchedulerKind::kNodc);
  // 1 s is below even an idle system's response time -> low bracket.
  const OperatingPoint low = FindRateForResponseTime(
      c, TestPattern(), 1.0, 0.1, 1.0, /*num_seeds=*/3, 4, 1.0, 2);
  EXPECT_FALSE(low.converged);
  EXPECT_EQ(low.num_seeds, 3);
  // An absurdly high target is above the curve -> high bracket.
  const OperatingPoint high = FindRateForResponseTime(
      c, TestPattern(), 10'000.0, 0.1, 0.5, /*num_seeds=*/3, 4, 1.0, 2);
  EXPECT_FALSE(high.converged);
  EXPECT_EQ(high.num_seeds, 3);
}

TEST(ParallelRunTest, AggregateCountersAreSummedPerSeed) {
  const SimConfig c = QuickConfig(SchedulerKind::kLow, /*rate=*/0.8);
  const AggregateResult agg = RunAggregate(c, TestPattern(), 2, 2);
  uint64_t expected_blocked = 0;
  for (int i = 0; i < 2; ++i) {
    SimConfig replica = c;
    replica.run.seed = c.run.seed + static_cast<uint64_t>(i);
    expected_blocked += RunSimulation(replica, TestPattern()).blocked;
  }
  uint64_t merged_blocked = 0;
  bool found = false;
  for (const auto& [name, value] : agg.counters) {
    if (name == "blocked") {
      merged_blocked = value;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(merged_blocked, expected_blocked);
  // The averaged legacy field and the raw summed counter must agree.
  EXPECT_DOUBLE_EQ(agg.blocked, static_cast<double>(expected_blocked) / 2.0);
}

TEST(ParallelRunTest, ConcurrentMachinesDoNotBleedState) {
  // Two different configurations running simultaneously must each match
  // their serial result — catches any scheduler/metrics/trace state shared
  // across Machine instances.
  SimConfig low = QuickConfig(SchedulerKind::kLow, 0.8);
  SimConfig c2pl = QuickConfig(SchedulerKind::kC2pl, 0.6);
  c2pl.run.seed = 17;
  const RunStats low_expected = RunSimulation(low, TestPattern());
  const RunStats c2pl_expected = RunSimulation(c2pl, TestPattern());
  RunStats low_stats, c2pl_stats;
  std::thread t1([&] { low_stats = RunSimulation(low, TestPattern()); });
  std::thread t2([&] { c2pl_stats = RunSimulation(c2pl, TestPattern()); });
  t1.join();
  t2.join();
  EXPECT_TRUE(low_stats == low_expected);
  EXPECT_TRUE(c2pl_stats == c2pl_expected);
}

TEST(ParallelRunTest, RunAggregatesMatchesPerBaseCalls) {
  std::vector<SimConfig> bases;
  bases.push_back(QuickConfig(SchedulerKind::kNodc, 0.4));
  bases.push_back(QuickConfig(SchedulerKind::kNodc, 0.8));
  const auto batch = RunAggregates(bases, TestPattern(), 2, 4);
  ASSERT_EQ(batch.size(), 2u);
  for (size_t i = 0; i < bases.size(); ++i) {
    const AggregateResult solo =
        RunAggregate(bases[i], TestPattern(), 2, 1);
    EXPECT_TRUE(batch[i] == solo) << "base " << i;
  }
}

TEST(ParallelRunTest, ResolveJobsPositivePassthrough) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
  EXPECT_GE(ResolveJobs(0), 1);  // DefaultJobs: env or hardware.
  EXPECT_GE(DefaultJobs(), 1);
}

}  // namespace
}  // namespace wtpgsched
