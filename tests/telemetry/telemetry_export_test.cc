#include "telemetry/telemetry_export.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/time.h"
#include "test_temp_path.h"
#include "telemetry/report_html.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"

namespace wtpgsched {
namespace {

TelemetryStore SmallStore() {
  TelemetryStore store({"sched.active", "rate.commit_per_s"}, /*capacity=*/8);
  store.Append(MsToTime(10'000), {3.0, 1.5});
  store.Append(MsToTime(20'000), {5.0, 2.25});
  return store;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetryExportTest, ToGaugeTracks) {
  const TelemetryStore store = SmallStore();
  const std::vector<GaugeTrack> tracks = ToGaugeTracks(store);
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].name, "sched.active");
  ASSERT_EQ(tracks[0].points.size(), 2u);
  EXPECT_EQ(tracks[0].points[0].first, MsToTime(10'000));
  EXPECT_EQ(tracks[0].points[0].second, 3.0);
  EXPECT_EQ(tracks[1].points[1].second, 2.25);
}

TEST(TelemetryExportTest, WideCsv) {
  const TelemetryStore store = SmallStore();
  const std::string path = UniqueTempPath("telemetry_test.csv");
  ASSERT_TRUE(WriteTelemetryCsv(store, path).ok());
  std::ifstream in(path);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "time_s,sched.active,rate.commit_per_s");
  EXPECT_EQ(row, "10.000000,3,1.5");
  std::remove(path.c_str());
}

// Gauge tracks merged into the JSONL trace survive a read back through the
// trace reader: names, sample times, and values round-trip.
TEST(TelemetryExportTest, TraceGaugeRoundTrip) {
  const TelemetryStore store = SmallStore();
  const std::vector<GaugeTrack> tracks = ToGaugeTracks(store);
  TraceMeta meta;
  meta.scheduler = "low";
  meta.num_nodes = 8;
  meta.num_files = 16;
  meta.seed = 7;
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"health.thrashing", 1}, {"restarts", 12}};
  const std::string path = UniqueTempPath("telemetry_trace.jsonl");
  ASSERT_TRUE(WriteJsonlTrace({}, meta, counters, /*dropped=*/0, path,
                              &tracks)
                  .ok());
  ParsedTrace trace;
  ASSERT_TRUE(ReadJsonlTrace(path, &trace).ok());
  ASSERT_EQ(trace.gauge_names.size(), 2u);
  EXPECT_EQ(trace.gauge_names[0], "sched.active");
  ASSERT_EQ(trace.gauge_samples.size(), 4u);
  EXPECT_EQ(trace.gauge_samples[0].time, MsToTime(10'000));
  EXPECT_EQ(trace.gauge_samples[0].gauge, 0);
  EXPECT_EQ(trace.gauge_samples[0].value, 3.0);
  // Footer counters come back sorted by name.
  ASSERT_EQ(trace.footer_counters.size(), 2u);
  EXPECT_EQ(trace.footer_counters[0].first, "health.thrashing");
  EXPECT_EQ(trace.footer_counters[0].second, 1u);
  std::remove(path.c_str());
}

TEST(ReportHtmlTest, RendersChartsAndVerdicts) {
  ReportRun run;
  run.title = "low seed=7";
  run.scheduler = "low";
  run.gauge_names = {"sched.active", "health.thrashing"};
  run.series = {{{10.0, 3.0}, {20.0, 5.0}}, {{10.0, 0.0}, {20.0, 1.0}}};
  run.counters = {{"health.thrashing", 1},
                  {"health.convoy", 0},
                  {"health.restart_storm", 0},
                  {"health.thrashing_windows", 5}};
  const std::string html = RenderRunReport({run});
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("low seed=7"), std::string::npos);
  EXPECT_NE(html.find("sched.active"), std::string::npos);
  EXPECT_NE(html.find("DETECTED"), std::string::npos);  // Thrashing verdict.
}

TEST(ReportHtmlTest, NoCountersFallsBackGracefully) {
  ReportRun run;
  run.title = "no telemetry";
  run.scheduler = "asl";
  const std::string html = RenderRunReport({run});
  EXPECT_NE(html.find("no health counters"), std::string::npos);
}

TEST(ReportHtmlTest, WriteRunReport) {
  ReportRun run;
  run.title = "r";
  run.gauge_names = {"g"};
  run.series = {{{1.0, 2.0}}};
  const std::string path = UniqueTempPath("report_test.html");
  ASSERT_TRUE(WriteRunReport({run}, path).ok());
  const std::string html = Slurp(path);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wtpgsched
