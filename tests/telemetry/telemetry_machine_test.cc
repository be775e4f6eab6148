#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/sim_run.h"
#include "machine/machine.h"
#include "telemetry/telemetry.h"

namespace wtpgsched {
namespace {

SimConfig BaseConfig(SchedulerKind kind) {
  SimConfig c;
  c.scheduler = kind;
  c.workload.arrival_rate_tps = 0.8;
  c.run.horizon_ms = 200'000;
  c.run.seed = 11;
  return c;
}

// Counter list without the observation-only entries a telemetry run
// appends: the health.* detectors plus the decision-path counters
// (retry storms and graph evaluations) that share the same gate.
std::vector<std::pair<std::string, uint64_t>> SansHealth(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  const char* observation_only[] = {"health.", "sched.decision_retries",
                                    "sched.block_shortcuts", "wtpg.evals"};
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& entry : counters) {
    bool skip = false;
    for (const char* prefix : observation_only) {
      if (entry.first.rfind(prefix, 0) == 0) skip = true;
    }
    if (!skip) out.push_back(entry);
  }
  return out;
}

// Telemetry is observation-only: enabling it must not perturb the
// simulation for any scheduler. Everything except the appended health.*
// counters must match the disabled run exactly.
TEST(TelemetryMachineTest, ObservationOnlyAcrossSchedulers) {
  const SchedulerKind kinds[] = {SchedulerKind::kNodc, SchedulerKind::kAsl,
                                 SchedulerKind::kC2pl, SchedulerKind::kOpt,
                                 SchedulerKind::kGow,  SchedulerKind::kLow};
  for (SchedulerKind kind : kinds) {
    SimConfig off = BaseConfig(kind);
    Machine machine_off(off, Pattern::Experiment1(off.machine.num_files));
    const RunStats a = machine_off.Run();

    SimConfig on = BaseConfig(kind);
    on.run.telemetry_sample_ms = 5'000;
    Machine machine_on(on, Pattern::Experiment1(on.machine.num_files));
    const RunStats b = machine_on.Run();

    SCOPED_TRACE(SchedulerKindName(kind));
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.blocked, b.blocked);
    EXPECT_EQ(a.delayed, b.delayed);
    EXPECT_EQ(a.mean_response_s, b.mean_response_s);
    EXPECT_EQ(a.throughput_tps, b.throughput_tps);
    EXPECT_EQ(a.counters, SansHealth(b.counters));
  }
}

TEST(TelemetryMachineTest, HealthCountersPresentInFixedOrder) {
  SimConfig c = BaseConfig(SchedulerKind::kLow);
  c.run.telemetry_sample_ms = 5'000;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  std::vector<std::string> health;
  for (const auto& [name, value] : stats.counters) {
    if (name.rfind("health.", 0) == 0) health.push_back(name);
  }
  const std::vector<std::string> expected = {
      "health.thrashing",         "health.convoy",
      "health.restart_storm",     "health.thrashing_windows",
      "health.convoy_windows",    "health.storm_windows"};
  EXPECT_EQ(health, expected);
}

TEST(TelemetryMachineTest, SamplesAtPeriodWithDerivedColumns) {
  SimConfig c = BaseConfig(SchedulerKind::kLow);
  c.run.telemetry_sample_ms = 10'000;
  c.run.horizon_ms = 100'000;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  machine.Run();
  ASSERT_NE(machine.telemetry(), nullptr);
  const TelemetryStore& store = machine.telemetry()->store();
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.time(0), MsToTime(10'000));
  EXPECT_EQ(store.time(9), MsToTime(100'000));
  // Machine, scheduler, WTPG, and derived columns all present.
  EXPECT_GE(store.ColumnIndex("machine.in_flight"), 0);
  EXPECT_GE(store.ColumnIndex("sched.active"), 0);
  EXPECT_GE(store.ColumnIndex("wtpg.nodes"), 0);
  EXPECT_GE(store.ColumnIndex("dpn0.utilization"), 0);
  EXPECT_GE(store.ColumnIndex("rate.commit_per_s"), 0);
  EXPECT_GE(store.ColumnIndex("health.thrashing"), 0);
  // The commits column is cumulative and non-decreasing.
  const int commits = store.ColumnIndex("machine.commits");
  ASSERT_GE(commits, 0);
  for (size_t row = 1; row < store.size(); ++row) {
    EXPECT_GE(store.value(row, static_cast<size_t>(commits)),
              store.value(row - 1, static_cast<size_t>(commits)));
  }
}

// Telemetry is opt-in: without telemetry_sample_ms the machine builds no
// telemetry and the run reports none of the observation-only counters.
TEST(TelemetryMachineTest, DisabledByDefault) {
  SimConfig c = BaseConfig(SchedulerKind::kAsl);
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  EXPECT_EQ(machine.telemetry(), nullptr);
  EXPECT_EQ(stats.counters, SansHealth(stats.counters));
}

// The cumulative commit column ends at the run's completion count, and
// the in-flight column sees the transactions the run had.
TEST(TelemetryMachineTest, CommitsColumnEndsAtCompletions) {
  SimConfig c;
  c.scheduler = SchedulerKind::kNodc;
  c.workload.arrival_rate_tps = 0.5;
  c.run.horizon_ms = 100'000;
  c.run.telemetry_sample_ms = 10'000;
  c.run.seed = 4;
  Machine machine(c, Pattern::Experiment1(16));
  const RunStats stats = machine.Run();
  const TelemetryStore& store = machine.telemetry()->store();
  ASSERT_EQ(store.size(), 10u);
  EXPECT_EQ(store.time(9), MsToTime(100'000));
  const int commits = store.ColumnIndex("machine.commits");
  const int in_flight = store.ColumnIndex("machine.in_flight");
  ASSERT_GE(commits, 0);
  ASSERT_GE(in_flight, 0);
  EXPECT_EQ(store.value(9, static_cast<size_t>(commits)),
            static_cast<double>(stats.completions));
  double peak_in_flight = 0.0;
  for (size_t row = 0; row < store.size(); ++row) {
    peak_in_flight = std::max(
        peak_in_flight, store.value(row, static_cast<size_t>(in_flight)));
  }
  EXPECT_GT(peak_in_flight, 0.0);
}

// A saturated ASL run builds an admission queue: the parked gauge rises.
TEST(TelemetryMachineTest, ParkedReflectsContention) {
  SimConfig c;
  c.scheduler = SchedulerKind::kAsl;
  c.workload.arrival_rate_tps = 1.2;
  c.run.horizon_ms = 500'000;
  c.run.telemetry_sample_ms = 50'000;
  c.run.seed = 6;
  Machine machine(c, Pattern::Experiment1(16));
  machine.Run();
  const TelemetryStore& store = machine.telemetry()->store();
  const int parked = store.ColumnIndex("machine.parked");
  ASSERT_GE(parked, 0);
  double max_parked = 0.0;
  for (size_t row = 0; row < store.size(); ++row) {
    max_parked =
        std::max(max_parked, store.value(row, static_cast<size_t>(parked)));
  }
  EXPECT_GT(max_parked, 0.0);
}

// The ring store bounds memory: a tiny capacity keeps only the most recent
// window and counts the overwritten rows.
TEST(TelemetryMachineTest, BoundedCapacityDropsOldest) {
  SimConfig c = BaseConfig(SchedulerKind::kAsl);
  c.run.telemetry_sample_ms = 10'000;
  c.run.horizon_ms = 100'000;
  c.run.telemetry_capacity = 4;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  machine.Run();
  const TelemetryStore& store = machine.telemetry()->store();
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.total_rows(), 10u);
  EXPECT_EQ(store.dropped(), 6u);
  EXPECT_EQ(store.time(0), MsToTime(70'000));
  EXPECT_EQ(store.time(3), MsToTime(100'000));
}

// The sampled series is a pure function of the config: two machines with
// the same config produce bit-identical stores, which is what makes the
// series jobs-invariant (each replica owns its machine; the worker count
// only changes which thread runs it).
TEST(TelemetryMachineTest, SampledSeriesDeterministic) {
  SimConfig c = BaseConfig(SchedulerKind::kGow);
  c.run.telemetry_sample_ms = 5'000;
  Machine m1(c, Pattern::Experiment1(c.machine.num_files));
  m1.Run();
  Machine m2(c, Pattern::Experiment1(c.machine.num_files));
  m2.Run();
  const TelemetryStore& a = m1.telemetry()->store();
  const TelemetryStore& b = m2.telemetry()->store();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.names(), b.names());
  for (size_t row = 0; row < a.size(); ++row) {
    ASSERT_EQ(a.time(row), b.time(row));
    for (size_t col = 0; col < a.num_columns(); ++col) {
      // Bit-level equality, NaN-safe: the series must be reproducible.
      const double va = a.value(row, col);
      const double vb = b.value(row, col);
      ASSERT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
          << a.name(col) << " row " << row;
    }
  }
}

// Aggregate JSON — including the merged health.* counters — is
// byte-identical regardless of the worker count.
TEST(TelemetryMachineTest, HealthCountersJobsInvariant) {
  SimConfig c = BaseConfig(SchedulerKind::kLow);
  c.workload.arrival_rate_tps = 1.2;
  c.run.telemetry_sample_ms = 5'000;
  const Pattern pattern = Pattern::Experiment1(c.machine.num_files);
  const std::string serial = RunAggregate(c, pattern, /*num_seeds=*/4,
                                          /*jobs=*/1)
                                 .ToJson();
  const std::string parallel = RunAggregate(c, pattern, /*num_seeds=*/4,
                                            /*jobs=*/4)
                                   .ToJson();
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("counters.health.thrashing"), std::string::npos);
}

}  // namespace
}  // namespace wtpgsched
