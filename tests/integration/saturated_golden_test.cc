// Saturated goldens: every scheduler at 1.2 TPS over a 600 s horizon, past
// the saturation knee, where the parked admission pool grows to hundreds of
// transactions and every commit re-decides it. The kernel goldens stop at 60
// arrivals and never reach that regime. Each case pins the RunStats JSON
// (with telemetry on, so the decision-retry and cache counters are part of
// it) plus FNV-1a digests of the exported trace JSONL and telemetry CSV,
// with faults off and on.
//
// Regenerate (only when an *intentional* behavior change lands) with:
//   WTPG_UPDATE_GOLDENS=1 ./kernel_invariance_test --gtest_filter='Sat*'

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "telemetry/telemetry_export.h"
#include "test_temp_path.h"
#include "trace/trace_export.h"
#include "util/string_util.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

constexpr const char* kGoldenFile = "golden_saturated.tsv";

const std::vector<std::string>& SchedulerFlags() {
  static const std::vector<std::string> flags = {
      "nodc", "asl", "c2pl", "opt", "gow", "low", "low-lb", "2pl"};
  return flags;
}

SimConfig SaturatedConfig(const std::string& flag, bool faulty) {
  SimConfig c;
  EXPECT_TRUE(ParseSchedulerKind(flag, &c.scheduler)) << flag;
  c.workload.arrival_rate_tps = 1.2;
  c.run.horizon_ms = 600'000;
  c.run.telemetry_sample_ms = 5'000;
  c.run.trace_enabled = true;
  if (faulty) {
    c.fault.dpn_mttf_ms = 150'000;
    c.fault.straggler_mtbf_ms = 200'000;
    c.fault.abort_rate_per_s = 0.02;
  }
  return c;
}

std::string ReadAndRemove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return out.str();
}

// "<fnv1a-64 hex>:<bytes>" of `data`.
std::string Digest(const std::string& data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char ch : data) {
    hash ^= ch;
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return StrCat(hex, ":", data.size());
}

// Golden row body: trace digest, telemetry CSV digest, RunStats JSON.
std::string RunCase(const std::string& flag, bool faulty) {
  const SimConfig c = SaturatedConfig(flag, faulty);
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  EXPECT_EQ(machine.trace().dropped(), 0u) << "trace ring too small";
  TraceMeta meta;
  meta.scheduler = machine.scheduler().name();
  meta.num_nodes = c.machine.num_nodes;
  meta.num_files = c.machine.num_files;
  meta.dd = c.machine.dd;
  meta.seed = c.run.seed;
  const std::string trace_path = UniqueTempPath("trace.jsonl");
  EXPECT_TRUE(WriteJsonlTrace(machine.trace().Snapshot(), meta,
                              stats.counters, machine.trace().dropped(),
                              trace_path, /*gauges=*/nullptr)
                  .ok());
  const std::string csv_path = UniqueTempPath("telemetry.csv");
  EXPECT_NE(machine.telemetry(), nullptr);
  EXPECT_TRUE(WriteTelemetryCsv(machine.telemetry()->store(), csv_path).ok());
  return StrCat(Digest(ReadAndRemove(trace_path)), "\t",
                Digest(ReadAndRemove(csv_path)), "\t", stats.ToJson());
}

std::string GoldenPath() {
  return std::string(WTPG_TEST_DATA_DIR) + "/" + kGoldenFile;
}

std::string CaseKey(const std::string& flag, bool faulty) {
  return StrCat(flag, "\t", faulty ? "fault" : "zero");
}

// Case key -> row body, from the golden file (empty when absent).
std::map<std::string, std::string> LoadGoldens() {
  std::map<std::string, std::string> rows;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find('\t');
    if (first == std::string::npos) continue;
    const size_t second = line.find('\t', first + 1);
    if (second == std::string::npos) continue;
    rows[line.substr(0, second)] = line.substr(second + 1);
  }
  return rows;
}

class SaturatedGoldenTest
    : public testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SaturatedGoldenTest, ByteIdenticalToGolden) {
  const auto& [flag, faulty] = GetParam();
  const std::string key = CaseKey(flag, faulty);
  const std::string actual = RunCase(flag, faulty);
  std::map<std::string, std::string> goldens = LoadGoldens();
  if (std::getenv("WTPG_UPDATE_GOLDENS") != nullptr) {
    // Rewrites the file in the canonical case order; run the cases in one
    // process (the command in the header) so updates do not race.
    goldens[key] = actual;
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    for (const std::string& f : SchedulerFlags()) {
      for (const bool fault : {false, true}) {
        auto it = goldens.find(CaseKey(f, fault));
        if (it != goldens.end()) out << it->first << "\t" << it->second << "\n";
      }
    }
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden row " << key << " regenerated";
  }
  auto it = goldens.find(key);
  ASSERT_NE(it, goldens.end()) << "no golden row for " << key << " in "
                               << GoldenPath();
  EXPECT_EQ(actual, it->second) << "scheduler " << key;
}

INSTANTIATE_TEST_SUITE_P(
    Saturated, SaturatedGoldenTest,
    testing::Combine(testing::ValuesIn(SchedulerFlags()), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(info.param) ? "_fault" : "_zero");
    });

}  // namespace
}  // namespace wtpgsched
