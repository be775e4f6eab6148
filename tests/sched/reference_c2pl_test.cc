// Production C2PL, which derives its precedence from the lock table and the
// pending declarations, against ReferenceC2pl, which stores every order in
// a graph: whole Machine runs must be byte-identical, RunStats JSON and
// trace events alike, with faults off and under crash, straggler and abort
// injection (the aborts are what create durable orders).

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "sched/c2pl.h"
#include "sched/reference_c2pl.h"
#include "trace/trace_export.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

SimConfig OracleConfig(uint64_t seed, bool faulty) {
  SimConfig c;
  c.scheduler = SchedulerKind::kC2pl;
  c.workload.arrival_rate_tps = 1.0;
  c.run.horizon_ms = 150'000;
  c.run.seed = seed;
  c.run.trace_enabled = true;
  c.run.telemetry_sample_ms = 10'000;
  if (faulty) {
    c.fault.dpn_mttf_ms = 60'000;
    c.fault.dpn_mttr_ms = 10'000;
    c.fault.straggler_mtbf_ms = 100'000;
    c.fault.abort_rate_per_s = 0.05;
  }
  return c;
}

// The run's RunStats JSON followed by its trace events, one JSON line each.
std::string RunWith(const SimConfig& c, std::unique_ptr<Scheduler> sched) {
  Machine machine(c, Pattern::Experiment1(c.machine.num_files),
                  std::move(sched));
  std::string out = machine.Run().ToJson() + "\n";
  EXPECT_EQ(machine.trace().dropped(), 0u);
  for (const TraceEvent& event : machine.trace().Snapshot()) {
    out += EventToJson(event) + "\n";
  }
  return out;
}

// Empty when the two outputs are equal, else their first differing lines.
std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a);
  std::istringstream in_b(b);
  std::string line_a;
  std::string line_b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool more_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!more_a && !more_b) return "";
    if (more_a != more_b || line_a != line_b) {
      return "line " + std::to_string(line) + ": " + line_a + " vs " + line_b;
    }
  }
}

void ExpectIdenticalRuns(bool faulty) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const SimConfig c = OracleConfig(seed, faulty);
    const SimTime ddtime = MsToTime(c.costs.dd_time_ms);
    const std::string production =
        RunWith(c, std::make_unique<C2plScheduler>(ddtime));
    const std::string reference =
        RunWith(c, std::make_unique<ReferenceC2pl>(ddtime));
    ASSERT_EQ(FirstDifference(production, reference), "");
  }
}

TEST(ReferenceC2plTest, FaultFreeRunsMatchStoredGraph) {
  ExpectIdenticalRuns(/*faulty=*/false);
}

TEST(ReferenceC2plTest, FaultedRunsMatchStoredGraph) {
  ExpectIdenticalRuns(/*faulty=*/true);
}

}  // namespace
}  // namespace wtpgsched
