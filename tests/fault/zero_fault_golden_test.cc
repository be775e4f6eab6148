// Differential guard for the fault layer: a configuration with no faults
// must produce byte-identical JSON to the goldens captured before the
// fault subsystem existed. The fault sources, cohort-job bookkeeping, and
// the lazily-registered fault counters all have to be invisible when
// config.fault is all-zero — any drift here fails loudly.
//
// The goldens were generated with:
//   wtpg_sim --scheduler=$s --rate=1.0 --horizon-ms=300000 --max-arrivals=60
//            [--seeds=2 --jobs=1] --json
// for every scheduler flag name (one line per scheduler: "<flag>\t<json>").

#include <fstream>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "driver/sim_run.h"
#include "machine/config.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

SimConfig GoldenConfig(const std::string& flag_name) {
  SimConfig c;
  EXPECT_TRUE(ParseSchedulerKind(flag_name, &c.scheduler)) << flag_name;
  c.workload.arrival_rate_tps = 1.0;
  c.workload.max_arrivals = 60;
  c.run.horizon_ms = 300'000;
  return c;
}

void ForEachGoldenLine(
    const std::string& file,
    const std::function<void(const std::string&, const std::string&)>& fn) {
  const std::string path = std::string(WTPG_TEST_DATA_DIR) + "/" + file;
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden " << path;
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << "malformed golden line: " << line;
    fn(line.substr(0, tab), line.substr(tab + 1));
    ++lines;
  }
  EXPECT_EQ(lines, 8) << "expected one golden line per scheduler";
}

TEST(ZeroFaultGoldenTest, AggregateJsonByteIdentical) {
  ForEachGoldenLine(
      "golden_zero_fault.tsv",
      [](const std::string& flag, const std::string& expected) {
        const SimConfig c = GoldenConfig(flag);
        const AggregateResult agg = RunAggregate(
            c, Pattern::Experiment1(c.machine.num_files), /*num_seeds=*/2,
            /*jobs=*/1);
        EXPECT_EQ(agg.ToJson(), expected) << "scheduler " << flag;
      });
}

TEST(ZeroFaultGoldenTest, SingleRunJsonByteIdentical) {
  ForEachGoldenLine(
      "golden_zero_fault_single.tsv",
      [](const std::string& flag, const std::string& expected) {
        const SimConfig c = GoldenConfig(flag);
        const RunStats stats =
            RunSimulation(c, Pattern::Experiment1(c.machine.num_files));
        EXPECT_EQ(stats.ToJson(), expected) << "scheduler " << flag;
      });
}

}  // namespace
}  // namespace wtpgsched
