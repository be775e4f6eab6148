// Seeded mutation of trace JSONL: `wtpg-trace summary` and
// `check-serializable` read whatever file they are given, so every mutated
// trace must either fail ReadJsonlTrace with a status or load and pass
// through SummarizeTrace and CheckTraceSerializable — never crash, never
// trip a CHECK. Seeds are the hand-corrupted trace in tests/data and a
// small recorded C2PL trace; mutations flip bytes, truncate, splice in a
// piece of either seed, and replace numeric fields by -1, INT64_MAX, a
// 20-digit number or 1e308.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "test_temp_path.h"
#include "trace/trace_analysis.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "util/random.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string RecordC2plTrace() {
  SimConfig c;
  c.scheduler = SchedulerKind::kC2pl;
  c.workload.arrival_rate_tps = 1.2;
  c.workload.max_arrivals = 12;
  c.run.horizon_ms = 300'000;
  c.run.trace_enabled = true;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  TraceMeta meta;
  meta.scheduler = machine.scheduler().name();
  meta.num_nodes = c.machine.num_nodes;
  meta.num_files = c.machine.num_files;
  meta.dd = c.machine.dd;
  meta.seed = c.run.seed;
  const std::string path = UniqueTempPath("c2pl_seed.jsonl");
  EXPECT_TRUE(WriteJsonlTrace(machine.trace().Snapshot(), meta,
                              stats.counters, machine.trace().dropped(), path)
                  .ok());
  std::string text = ReadText(path);
  std::remove(path.c_str());
  return text;
}

size_t RandomPos(Rng* rng, const std::string& text) {
  return static_cast<size_t>(rng->UniformInt(0, text.size()));
}

// Replaces the digits of a number that follows a ':' near `pos` (the first
// one at or after it, else the first in the text) by `value`.
void ReplaceNumber(std::string* text, size_t pos, const std::string& value) {
  size_t at = text->find(':', pos);
  while (at != std::string::npos && at + 1 < text->size()) {
    const char c = (*text)[at + 1];
    if (c == '-' || (c >= '0' && c <= '9')) break;
    at = text->find(':', at + 1);
  }
  if (at == std::string::npos || at + 1 >= text->size()) {
    if (pos == 0) return;
    ReplaceNumber(text, 0, value);
    return;
  }
  size_t end = at + 1;
  while (end < text->size() && (*text)[end] != ',' && (*text)[end] != '}') {
    ++end;
  }
  text->replace(at + 1, end - at - 1, value);
}

TEST(TraceFuzzTest, MutatedTracesLoadOrFailCleanly) {
  const std::vector<std::string> seeds = {
      ReadText(std::string(WTPG_TEST_DATA_DIR) + "/corrupted_trace.jsonl"),
      RecordC2plTrace()};
  const std::string path = UniqueTempPath("mutated.jsonl");
  for (const std::string& seed : seeds) {
    WriteText(path, seed);
    ParsedTrace trace;
    ASSERT_TRUE(ReadJsonlTrace(path, &trace).ok());
    ASSERT_FALSE(trace.events.empty());
  }
  const char* const kNumbers[] = {"-1", "9223372036854775807",
                                  "12345678901234567890", "1e308"};
  Rng rng(19910411);
  int loaded = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    std::string text = seeds[rng.UniformInt(0, seeds.size() - 1)];
    const int mutations = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = RandomPos(&rng, text) % text.size();
      switch (rng.UniformInt(0, 4)) {
        case 0:  // Flip one bit of one byte.
          text[pos] =
              static_cast<char>(text[pos] ^ (1 << rng.UniformInt(0, 7)));
          break;
        case 1:  // Truncate.
          text.resize(pos);
          break;
        case 2: {  // Splice a piece of a seed over a piece of the text.
          const std::string& donor =
              seeds[rng.UniformInt(0, seeds.size() - 1)];
          const size_t from = RandomPos(&rng, donor);
          const size_t len = static_cast<size_t>(rng.UniformInt(1, 80));
          text.replace(pos, static_cast<size_t>(rng.UniformInt(0, 80)),
                       donor.substr(from, len));
          break;
        }
        default:  // An out-of-range or unparsable numeric field, twice as
                  // likely as the others: -1 and INT64_MAX still load.
          ReplaceNumber(&text, pos, kNumbers[rng.UniformInt(0, 3)]);
          break;
      }
    }
    WriteText(path, text);
    ParsedTrace trace;
    const Status status = ReadJsonlTrace(path, &trace);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
      continue;
    }
    ++loaded;
    const TraceSummary summary = SummarizeTrace(trace.events);
    uint64_t counted = 0;
    for (const auto& [type, count] : summary.event_counts) counted += count;
    EXPECT_EQ(counted, trace.events.size());
    const SerializabilityResult verdict = CheckTraceSerializable(trace.events);
    EXPECT_EQ(verdict.serializable, verdict.cycle.empty());
  }
  std::remove(path.c_str());
  // Mutations that land in a string value or leave a line well formed
  // still load, so some trials must.
  EXPECT_GT(loaded, 100);
}

// Replays subtract and sum event times: a negative time, or one earlier
// than the event before, would overflow them (INT64_MAX - -1, or
// INT64_MAX + INT64_MAX). The reader rejects both; a forward-running trace
// with INT64_MAX times loads and summarizes.
TEST(TraceFuzzTest, EventTimesMustRunForward) {
  const std::string header =
      std::string("{\"schema\":\"") + kTraceSchemaVersion + "\"}\n";
  const std::string path = UniqueTempPath("times.jsonl");
  ParsedTrace trace;
  WriteText(path, header + "{\"t\":-1,\"type\":\"arrive\",\"txn\":1}\n" +
                      "{\"t\":9223372036854775807,\"type\":\"commit\","
                      "\"txn\":1}\n");
  EXPECT_EQ(ReadJsonlTrace(path, &trace).code(), StatusCode::kInvalidArgument);
  WriteText(path,
            header + "{\"t\":0,\"type\":\"arrive\",\"txn\":1}\n" +
                "{\"t\":9223372036854775807,\"type\":\"admit\",\"txn\":1}\n" +
                "{\"t\":0,\"type\":\"restart_scheduled\",\"txn\":1}\n" +
                "{\"t\":9223372036854775807,\"type\":\"admit\",\"txn\":1}\n");
  EXPECT_EQ(ReadJsonlTrace(path, &trace).code(), StatusCode::kInvalidArgument);
  WriteText(path,
            header + "{\"t\":0,\"type\":\"arrive\",\"txn\":1}\n" +
                "{\"t\":9223372036854775807,\"type\":\"admit\",\"txn\":1}\n" +
                "{\"t\":9223372036854775807,\"type\":\"commit\",\"txn\":1}\n");
  ASSERT_TRUE(ReadJsonlTrace(path, &trace).ok());
  const TraceSummary summary = SummarizeTrace(trace.events);
  ASSERT_EQ(summary.txns.size(), 1u);
  EXPECT_EQ(summary.txns[0].response_s, TimeToSeconds(kSimTimeMax));
  EXPECT_EQ(summary.txns[0].admission_wait_s, TimeToSeconds(kSimTimeMax));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wtpgsched
