#include "trace/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "test_temp_path.h"
#include "trace/trace_reader.h"

namespace wtpgsched {
namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

// Representative events covering every payload combination the schema
// defines (see TraceEvent and the Uses* tables in trace_export.cc).
std::vector<TraceEvent> SampleEvents() {
  return {
      {.time = 0, .type = TraceEventType::kArrive, .txn = 1, .arg = 4},
      {.time = 5, .type = TraceEventType::kAdmit, .txn = 1},
      {.time = 6,
       .type = TraceEventType::kLockRequest,
       .txn = 1,
       .file = 3,
       .step = 0},
      {.time = 7,
       .type = TraceEventType::kLockGrant,
       .txn = 1,
       .file = 3,
       .mode = LockMode::kExclusive},
      {.time = 8,
       .type = TraceEventType::kStepDispatch,
       .txn = 1,
       .file = 3,
       .step = 0},
      {.time = 9,
       .type = TraceEventType::kScanStart,
       .txn = 1,
       .file = 3,
       .node = 2,
       .value = 7.5},
      {.time = 20,
       .type = TraceEventType::kScanEnd,
       .txn = 1,
       .file = 3,
       .node = 2},
      {.time = 21, .type = TraceEventType::kStepReturn, .txn = 1, .step = 0},
      {.time = 21,
       .type = TraceEventType::kDataAccess,
       .txn = 1,
       .incarnation = 1,
       .file = 3,
       .mode = LockMode::kShared},
      {.time = 30,
       .type = TraceEventType::kAbort,
       .txn = 2,
       .incarnation = 1,
       .arg = kAbortDeadlockVictim},
      {.time = 31, .type = TraceEventType::kRestartScheduled, .txn = 2},
      {.time = 40,
       .type = TraceEventType::kLowEval,
       .txn = 1,
       .file = 3,
       .arg = 2,
       .value = 12.5},
      {.time = 41, .type = TraceEventType::kLowDeadlock, .txn = 1, .file = 3},
      // A competitor whose grant would deadlock: E(p) is infinite, and the
      // JSONL encoding must round-trip it.
      {.time = 41,
       .type = TraceEventType::kLowEval,
       .txn = 2,
       .file = 3,
       .arg = -1,
       .value = std::numeric_limits<double>::infinity()},
      {.time = 42,
       .type = TraceEventType::kGowChainTest,
       .txn = 3,
       .arg = 1,
       .value = 2.0},
      {.time = 43,
       .type = TraceEventType::kGowOrientation,
       .txn = 3,
       .file = 5,
       .arg = kGowDelaySuboptimal,
       .value = 10.0,
       .value2 = 14.0},
      {.time = 44,
       .type = TraceEventType::kC2plPredict,
       .txn = 4,
       .file = 6,
       .arg = 1},
      {.time = 45,
       .type = TraceEventType::kOptValidation,
       .txn = 5,
       .incarnation = 2,
       .arg = 0},
      {.time = 50, .type = TraceEventType::kCommit, .txn = 1,
       .incarnation = 1},
  };
}

TEST(TraceExportTest, EventJsonRoundTripsForEveryPayloadShape) {
  for (const TraceEvent& e : SampleEvents()) {
    const std::string json = EventToJson(e);
    StatusOr<TraceEvent> parsed = ParseEventJson(json);
    ASSERT_TRUE(parsed.ok()) << json << ": " << parsed.status().ToString();
    // Serialization is canonical (fixed key order, type-dependent field
    // set), so re-serializing the parsed event must reproduce the line.
    EXPECT_EQ(EventToJson(*parsed), json);
  }
}

TEST(TraceExportTest, EventJsonOmitsUnsetFields) {
  const TraceEvent e{.time = 3, .type = TraceEventType::kArrive, .txn = 9};
  const std::string json = EventToJson(e);
  EXPECT_EQ(json.find("file"), std::string::npos);
  EXPECT_EQ(json.find("node"), std::string::npos);
  EXPECT_EQ(json.find("step"), std::string::npos);
  EXPECT_EQ(json.find("mode"), std::string::npos);
  EXPECT_NE(json.find("\"txn\":9"), std::string::npos);
}

TEST(TraceExportTest, JsonlWriteReadRoundTrip) {
  const std::string path = UniqueTempPath("roundtrip_trace.jsonl");
  const std::vector<TraceEvent> events = SampleEvents();
  TraceMeta meta;
  meta.scheduler = "LOW";
  meta.num_nodes = 8;
  meta.num_files = 16;
  meta.dd = 2;
  meta.seed = 42;
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"restarts", 1}, {"trace.commit", 1}};
  ASSERT_TRUE(WriteJsonlTrace(events, meta, counters, 7, path).ok());

  ParsedTrace parsed;
  Status s = ReadJsonlTrace(path, &parsed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(parsed.meta.scheduler, "LOW");
  EXPECT_EQ(parsed.meta.num_nodes, 8);
  EXPECT_EQ(parsed.meta.num_files, 16);
  EXPECT_EQ(parsed.meta.dd, 2);
  EXPECT_EQ(parsed.meta.seed, 42u);
  EXPECT_TRUE(parsed.footer_seen);
  EXPECT_EQ(parsed.dropped, 7u);
  ASSERT_EQ(parsed.events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(EventToJson(parsed.events[i]), EventToJson(events[i])) << i;
  }
  std::remove(path.c_str());
}

// Integer fields are read from the number's text: a double holds integers
// exactly only up to 2^53, so 2^53 + 1 would read back as 2^53.
TEST(TraceExportTest, TimesAbove2To53ReadBackExactly) {
  constexpr SimTime kTime = (SimTime{1} << 53) + 1;
  constexpr TxnId kTxn = (TxnId{1} << 60) + 3;
  const std::vector<TraceEvent> events = {
      {.time = kTime, .type = TraceEventType::kArrive, .txn = kTxn},
      {.time = kSimTimeMax, .type = TraceEventType::kCommit, .txn = kTxn}};
  const std::vector<GaugeTrack> gauges = {{"sched.active", {{kTime, 2.5}}}};
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"commits", (uint64_t{1} << 53) + 1}};
  const std::string path = UniqueTempPath("big_times.jsonl");
  ASSERT_TRUE(
      WriteJsonlTrace(events, TraceMeta{}, counters, 0, path, &gauges).ok());
  ParsedTrace parsed;
  const Status s = ReadJsonlTrace(path, &parsed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].time, kTime);
  EXPECT_EQ(parsed.events[0].txn, kTxn);
  EXPECT_EQ(parsed.events[1].time, kSimTimeMax);
  ASSERT_EQ(parsed.gauge_samples.size(), 1u);
  EXPECT_EQ(parsed.gauge_samples[0].time, kTime);
  ASSERT_EQ(parsed.footer_counters.size(), 1u);
  EXPECT_EQ(parsed.footer_counters[0].second, (uint64_t{1} << 53) + 1);
  StatusOr<TraceEvent> line = ParseEventJson(EventToJson(events[0]));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->time, kTime);
  std::remove(path.c_str());
}

// A value its field cannot hold is an error, not a silent wrap (file
// 4294967296 used to read back as file 0).
TEST(TraceExportTest, NarrowFieldsRejectValuesTheyCannotHold) {
  EXPECT_FALSE(
      ParseEventJson("{\"t\":1,\"type\":\"arrive\",\"file\":4294967296}")
          .ok());
  EXPECT_FALSE(
      ParseEventJson("{\"t\":1,\"type\":\"arrive\",\"step\":-2147483649}")
          .ok());
  EXPECT_TRUE(
      ParseEventJson("{\"t\":1,\"type\":\"arrive\",\"file\":2147483647}")
          .ok());
}

TEST(TraceExportTest, MissingFileIsNotFound) {
  ParsedTrace parsed;
  EXPECT_EQ(
      ReadJsonlTrace(UniqueTempPath("no_such_trace.jsonl"), &parsed).code(),
      StatusCode::kNotFound);
}

TEST(TraceExportTest, WrongSchemaIsRejected) {
  const std::string path = UniqueTempPath("bad_schema.jsonl");
  WriteFile(path, "{\"schema\":\"wtpg-trace/999\"}\n");
  ParsedTrace parsed;
  EXPECT_FALSE(ReadJsonlTrace(path, &parsed).ok());
  std::remove(path.c_str());
}

TEST(TraceExportTest, CorruptLinesAreErrors) {
  const std::string header =
      std::string("{\"schema\":\"") + kTraceSchemaVersion + "\"}\n";
  struct Case {
    const char* name;
    const char* line;
  };
  const Case cases[] = {
      {"unknown type", "{\"t\":1,\"type\":\"warp_drive\"}"},
      {"unknown key", "{\"t\":1,\"type\":\"arrive\",\"zz\":1}"},
      {"missing type", "{\"t\":1,\"txn\":2}"},
      {"bad mode", "{\"t\":1,\"type\":\"lock_grant\",\"mode\":\"Q\"}"},
      {"not an object", "garbage"},
  };
  for (const Case& c : cases) {
    const std::string path = UniqueTempPath("corrupt_line.jsonl");
    WriteFile(path, header + c.line + "\n");
    ParsedTrace parsed;
    EXPECT_FALSE(ReadJsonlTrace(path, &parsed).ok()) << c.name;
    std::remove(path.c_str());
  }
}

TEST(TraceExportTest, TruncatedTraceHasNoFooter) {
  const std::string path = UniqueTempPath("truncated_trace.jsonl");
  WriteFile(path, std::string("{\"schema\":\"") + kTraceSchemaVersion +
                      "\"}\n{\"t\":1,\"type\":\"arrive\",\"txn\":1}\n");
  ParsedTrace parsed;
  ASSERT_TRUE(ReadJsonlTrace(path, &parsed).ok());
  EXPECT_FALSE(parsed.footer_seen);
  EXPECT_EQ(parsed.events.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceExportTest, ChromeTraceIsBalancedJson) {
  const std::string path = UniqueTempPath("chrome_trace.json");
  TraceMeta meta;
  meta.scheduler = "LOW";
  meta.num_nodes = 2;
  ASSERT_TRUE(WriteChromeTrace(SampleEvents(), meta, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Structural sanity: brace/bracket balance and the tracks we promised.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("DPN 0"), std::string::npos);   // DPN track names.
  EXPECT_NE(content.find("\"T1\""), std::string::npos);  // Txn track names.
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);  // Slices.
  EXPECT_NE(content.find("\"ph\":\"i\""), std::string::npos);  // Instants.
  EXPECT_NE(content.find("\"commit\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wtpgsched
