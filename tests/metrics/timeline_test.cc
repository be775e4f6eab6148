#include "metrics/timeline.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "telemetry/gauge_registry.h"
#include "test_temp_path.h"

namespace wtpgsched {
namespace {

// Builds a store with exactly the six legacy columns so the view tests can
// append rows directly (the production path goes through Telemetry).
TelemetryStore LegacyStore() {
  return TelemetryStore(
      {TimelineRecorder::kInFlightGauge, TimelineRecorder::kActiveGauge,
       TimelineRecorder::kParkedGauge, TimelineRecorder::kCnQueueGauge,
       TimelineRecorder::kBacklogGauge, TimelineRecorder::kCompletionsGauge},
      /*capacity=*/64);
}

TEST(TimelineRecorderTest, EmptyByDefault) {
  TimelineRecorder recorder;
  EXPECT_FALSE(recorder.attached());
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.PeakInFlight(), 0u);
}

TEST(TimelineRecorderTest, ViewsStoreRowsAndPeaks) {
  TelemetryStore store = LegacyStore();
  store.Append(SecondsToTime(1), {3, 2, 1, 0.0, 5.5, 0});
  store.Append(SecondsToTime(2), {7, 4, 3, 1.0, 2.0, 2});
  store.Append(SecondsToTime(3), {5, 5, 0, 0.0, 0.0, 4});
  TimelineRecorder recorder;
  recorder.Attach(&store);
  ASSERT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.time(0), SecondsToTime(1));
  EXPECT_EQ(recorder.in_flight(1), 7u);
  EXPECT_EQ(recorder.active(1), 4u);
  EXPECT_EQ(recorder.parked(1), 3u);
  EXPECT_EQ(recorder.completions(2), 4u);
  EXPECT_EQ(recorder.PeakInFlight(), 7u);
}

TEST(TimelineRecorderTest, MissingColumnsReadZero) {
  TelemetryStore store({"machine.in_flight"}, /*capacity=*/4);
  store.Append(SecondsToTime(1), {9});
  TimelineRecorder recorder;
  recorder.Attach(&store);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.in_flight(0), 9u);
  EXPECT_EQ(recorder.active(0), 0u);
  EXPECT_EQ(recorder.cn_queue(0), 0.0);
}

TEST(TimelineRecorderTest, CsvRoundTrip) {
  TelemetryStore store = LegacyStore();
  store.Append(SecondsToTime(1), {3, 2, 1, 0.5, 5.5, 9});
  TimelineRecorder recorder;
  recorder.Attach(&store);
  const std::string path = UniqueTempPath("timeline_test.csv");
  ASSERT_TRUE(recorder.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header,
            "time_s,in_flight,active,parked,cn_queue,dpn_backlog_objects,"
            "completions");
  EXPECT_EQ(row, "1.0,3,2,1,0.5,5.50,9");
  std::remove(path.c_str());
}

TEST(MachineTimelineTest, DisabledByDefault) {
  SimConfig c;
  c.scheduler = SchedulerKind::kNodc;
  c.workload.arrival_rate_tps = 0.5;
  c.run.horizon_ms = 100'000;
  c.workload.max_arrivals = 5;
  Machine m(c, Pattern::Experiment1(16));
  m.Run();
  EXPECT_FALSE(m.timeline().attached());
  EXPECT_TRUE(m.timeline().empty());
  EXPECT_EQ(m.telemetry(), nullptr);
}

TEST(MachineTimelineTest, SamplesAtConfiguredPeriod) {
  SimConfig c;
  c.scheduler = SchedulerKind::kNodc;
  c.workload.arrival_rate_tps = 0.5;
  c.run.horizon_ms = 100'000;
  c.run.timeline_sample_ms = 10'000;
  c.run.seed = 4;
  Machine m(c, Pattern::Experiment1(16));
  const RunStats stats = m.Run();
  ASSERT_EQ(m.timeline().size(), 10u);
  EXPECT_EQ(m.timeline().time(0), MsToTime(10'000));
  EXPECT_EQ(m.timeline().time(9), MsToTime(100'000));
  // The cumulative completion counter in the last sample matches the run.
  EXPECT_EQ(m.timeline().completions(9), stats.completions);
  EXPECT_GT(m.timeline().PeakInFlight(), 0u);
}

TEST(MachineTimelineTest, ParkedReflectsContention) {
  SimConfig c;
  c.scheduler = SchedulerKind::kAsl;
  c.workload.arrival_rate_tps = 1.2;  // Saturating: admission queue builds up.
  c.run.horizon_ms = 500'000;
  c.run.timeline_sample_ms = 50'000;
  c.run.seed = 6;
  Machine m(c, Pattern::Experiment1(16));
  m.Run();
  uint64_t max_parked = 0;
  for (size_t row = 0; row < m.timeline().size(); ++row) {
    max_parked = std::max(max_parked, m.timeline().parked(row));
  }
  EXPECT_GT(max_parked, 0u);
}

}  // namespace
}  // namespace wtpgsched
