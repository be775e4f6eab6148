// Shard-invariance suite: the sharded-clock PDES engine (sim/
// sharded_simulator.*, DESIGN.md section 13) is an execution strategy, not
// a model change — running a simulation at any --shards value must not move
// a single byte of output. These tests pin byte-identity of RunStats JSON,
// the structured event trace, and the telemetry exports between the serial
// engine (shards=0) and the sharded engine at 1, 2, 4 and 8 worker shards,
// across every scheduler with faults off and on.
//
// The whole-binary shard_determinism_suite runs under the tsan preset:
// identical output under ThreadSanitizer proves the determinism is not an
// artifact of lucky thread timing.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "telemetry/telemetry_export.h"
#include "test_temp_path.h"
#include "trace/trace_export.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

const std::vector<std::string>& SchedulerFlags() {
  static const std::vector<std::string> flags = {
      "nodc", "asl", "c2pl", "opt", "gow", "low", "low-lb", "2pl"};
  return flags;
}

const std::vector<int>& ShardCounts() {
  static const std::vector<int> counts = {1, 2, 4, 8};
  return counts;
}

// Same workload shape as the kernel-invariance goldens: heavy enough that
// every scheduler path fires, cheap enough to run 8 x 2 x 5 machines.
SimConfig BaseConfig(const std::string& flag) {
  SimConfig c;
  EXPECT_TRUE(ParseSchedulerKind(flag, &c.scheduler)) << flag;
  c.workload.arrival_rate_tps = 1.0;
  c.workload.max_arrivals = 60;
  c.run.horizon_ms = 300'000;
  return c;
}

SimConfig FaultyConfig(const std::string& flag) {
  SimConfig c = BaseConfig(flag);
  c.fault.dpn_mttf_ms = 150'000;
  c.fault.straggler_mtbf_ms = 200'000;
  c.fault.abort_rate_per_s = 0.02;
  return c;
}

std::string RunStatsJson(SimConfig c, int shards) {
  c.run.shards = shards;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  return machine.Run().ToJson();
}

// Reads a scratch export and deletes it (every name is unique per process,
// so nothing else reuses it).
std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return out.str();
}

TEST(ShardInvarianceTest, RunStatsJsonShardInvariant) {
  for (const std::string& flag : SchedulerFlags()) {
    for (const bool faulty : {false, true}) {
      const SimConfig c = faulty ? FaultyConfig(flag) : BaseConfig(flag);
      const std::string serial = RunStatsJson(c, /*shards=*/0);
      for (const int shards : ShardCounts()) {
        EXPECT_EQ(serial, RunStatsJson(c, shards))
            << "scheduler " << flag << (faulty ? " (fault)" : " (zero)")
            << " shards=" << shards;
      }
    }
  }
}

// Trace identity is stricter than RunStats identity: the trace records the
// exact execution order of every machine event, so any reordering the
// aggregate stats happen to mask still fails here. Two representative
// schedulers keep the cost down — the full matrix is covered above.
TEST(ShardInvarianceTest, EventTraceShardInvariant) {
  for (const std::string& flag : {std::string("low"), std::string("c2pl")}) {
    for (const bool faulty : {false, true}) {
      SimConfig c = faulty ? FaultyConfig(flag) : BaseConfig(flag);
      c.run.trace_enabled = true;
      std::string serial;
      for (const int shards : {0, 2, 8}) {
        c.run.shards = shards;
        Machine machine(c, Pattern::Experiment1(c.machine.num_files));
        const RunStats stats = machine.Run();
        TraceMeta meta;
        meta.scheduler = machine.scheduler().name();
        meta.num_nodes = c.machine.num_nodes;
        meta.num_files = c.machine.num_files;
        meta.dd = c.machine.dd;
        meta.seed = c.run.seed;
        const std::string path = UniqueTempPath("shard_trace.jsonl");
        ASSERT_TRUE(WriteJsonlTrace(machine.trace().Snapshot(), meta,
                                    stats.counters, machine.trace().dropped(),
                                    path, /*gauges=*/nullptr)
                        .ok());
        const std::string trace = ReadFile(path);
        if (shards == 0) {
          serial = trace;
          ASSERT_FALSE(serial.empty());
        } else {
          EXPECT_EQ(serial, trace)
              << "scheduler " << flag << (faulty ? " (fault)" : " (zero)")
              << " shards=" << shards;
        }
      }
    }
  }
}

// Telemetry samples mid-run gauges (per-DPN utilization and backlog among
// them), so this exercises the cross-shard BusyTime/BacklogObjects probes
// at sample points, not just at the end of the run.
TEST(ShardInvarianceTest, TelemetryExportShardInvariant) {
  for (const std::string& flag : {std::string("low-lb"), std::string("gow")}) {
    SimConfig c = FaultyConfig(flag);
    c.run.telemetry_sample_ms = 5'000;
    std::string serial_csv;
    std::string serial_jsonl;
    for (const int shards : {0, 2, 8}) {
      c.run.shards = shards;
      Machine machine(c, Pattern::Experiment1(c.machine.num_files));
      (void)machine.Run();
      ASSERT_NE(machine.telemetry(), nullptr);
      const std::string csv_path = UniqueTempPath("shard_telemetry.csv");
      const std::string jsonl_path = UniqueTempPath("shard_telemetry.jsonl");
      ASSERT_TRUE(
          WriteTelemetryCsv(machine.telemetry()->store(), csv_path).ok());
      ASSERT_TRUE(
          WriteTelemetryJsonl(machine.telemetry()->store(), jsonl_path).ok());
      const std::string csv = ReadFile(csv_path);
      const std::string jsonl = ReadFile(jsonl_path);
      if (shards == 0) {
        serial_csv = csv;
        serial_jsonl = jsonl;
        ASSERT_FALSE(serial_csv.empty());
      } else {
        EXPECT_EQ(serial_csv, csv) << flag << " shards=" << shards;
        EXPECT_EQ(serial_jsonl, jsonl) << flag << " shards=" << shards;
      }
    }
  }
}

// The engine runs the same protocol whatever the node/shard ratio; pin the
// edge shapes — more shards than nodes, one node, horizon cut mid-flight.
TEST(ShardInvarianceTest, EdgeShapesShardInvariant) {
  SimConfig c = BaseConfig("low");
  c.machine.num_nodes = 3;
  c.machine.dd = 2;
  c.run.horizon_ms = 123'456;  // Cuts transactions off mid-step.
  const std::string serial = RunStatsJson(c, /*shards=*/0);
  for (const int shards : {1, 3, 8}) {
    EXPECT_EQ(serial, RunStatsJson(c, shards)) << "shards=" << shards;
  }

  SimConfig one = BaseConfig("c2pl");
  one.machine.num_nodes = 1;
  EXPECT_EQ(RunStatsJson(one, 0), RunStatsJson(one, 4)) << "single node";
}

}  // namespace
}  // namespace wtpgsched
