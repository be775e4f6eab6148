// A run's fault plan: the crashes, repairs, slowdown windows and abort
// injections its seed determines. Each source draws its next event from
// its own stream as the previous one fires (Machine::StartFaultSources);
// these tests read the plan back from the run's trace.

#include <gtest/gtest.h>

#include <vector>

#include "machine/machine.h"
#include "sim/time.h"
#include "trace/trace_event.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

constexpr double kHorizonMs = 1'000'000;

SimConfig ChurnConfig() {
  SimConfig c;
  c.workload.arrival_rate_tps = 0.2;
  c.run.horizon_ms = kHorizonMs;
  c.run.trace_enabled = true;
  c.fault.dpn_mttf_ms = 60'000;
  c.fault.dpn_mttr_ms = 20'000;
  c.fault.straggler_mtbf_ms = 120'000;
  c.fault.straggler_duration_ms = 30'000;
  c.fault.straggler_factor = 4.0;
  c.fault.abort_rate_per_s = 0.05;
  return c;
}

bool IsFault(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kDpnCrash:
    case TraceEventType::kDpnRepair:
    case TraceEventType::kDpnSlowdown:
    case TraceEventType::kFaultBackoff:
      return true;
    case TraceEventType::kAbort:
      return e.arg == kAbortNodeCrash || e.arg == kAbortInjected;
    default:
      return false;
  }
}

bool IsCrashOrRepair(const TraceEvent& e) {
  return e.type == TraceEventType::kDpnCrash ||
         e.type == TraceEventType::kDpnRepair;
}

// Runs `c` and returns the fault events of its trace, in firing order.
std::vector<TraceEvent> FaultTrace(const SimConfig& c,
                                   bool (*keep)(const TraceEvent&) = IsFault) {
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  machine.Run();
  EXPECT_EQ(machine.trace().dropped(), 0u);
  std::vector<TraceEvent> faults;
  for (const TraceEvent& e : machine.trace().Snapshot()) {
    if (keep(e)) faults.push_back(e);
  }
  return faults;
}

bool SameEvents(const std::vector<TraceEvent>& a,
                const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].type != b[i].type ||
        a[i].node != b[i].node || a[i].txn != b[i].txn ||
        a[i].arg != b[i].arg || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

size_t CountType(const std::vector<TraceEvent>& events, TraceEventType type) {
  size_t n = 0;
  for (const TraceEvent& e : events) n += e.type == type ? 1 : 0;
  return n;
}

// Zero rates start no source, whatever the other fault fields say: the run
// records no fault event and matches a default-config run byte for byte.
TEST(FaultPlanTest, ZeroFaultConfigDrawsNothing) {
  SimConfig c = ChurnConfig();
  c.fault.dpn_mttf_ms = 0;
  c.fault.straggler_mtbf_ms = 0;
  c.fault.abort_rate_per_s = 0;
  EXPECT_TRUE(FaultTrace(c).empty());

  SimConfig plain = c;
  plain.fault = FaultConfig{};
  Machine a(c, Pattern::Experiment1(c.machine.num_files));
  Machine b(plain, Pattern::Experiment1(plain.machine.num_files));
  EXPECT_EQ(a.Run().ToJson(), b.Run().ToJson());
}

TEST(FaultPlanTest, SameSeedBitIdentical) {
  SimConfig c = ChurnConfig();
  c.run.seed = 42;
  const std::vector<TraceEvent> a = FaultTrace(c);
  const std::vector<TraceEvent> b = FaultTrace(c);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(SameEvents(a, b));
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  SimConfig c = ChurnConfig();
  c.run.seed = 1;
  const std::vector<TraceEvent> a = FaultTrace(c);
  c.run.seed = 2;
  const std::vector<TraceEvent> b = FaultTrace(c);
  EXPECT_FALSE(SameEvents(a, b));
}

// Turning other fault sources on must not move the crash schedule: each
// source draws from its own forked stream, and no source reads the
// workload's state to time its events.
TEST(FaultPlanTest, CrashScheduleIndependentOfOtherSources) {
  SimConfig churn = ChurnConfig();
  churn.run.seed = 7;
  SimConfig crash_only = churn;
  crash_only.fault.straggler_mtbf_ms = 0;
  crash_only.fault.abort_rate_per_s = 0;
  const std::vector<TraceEvent> lone = FaultTrace(crash_only, IsCrashOrRepair);
  const std::vector<TraceEvent> mixed = FaultTrace(churn, IsCrashOrRepair);
  ASSERT_FALSE(lone.empty());
  ASSERT_EQ(mixed.size(), lone.size());
  for (size_t i = 0; i < lone.size(); ++i) {
    EXPECT_EQ(mixed[i].time, lone[i].time);
    EXPECT_EQ(mixed[i].type, lone[i].type);
    EXPECT_EQ(mixed[i].node, lone[i].node);
  }
}

// Every fault fires inside [0, horizon), in time order. Long repairs and
// windows push many draws past the horizon, which ends their sources.
TEST(FaultPlanTest, EventsSortedAndWithinHorizon) {
  SimConfig c = ChurnConfig();
  c.run.seed = 3;
  c.fault.dpn_mttr_ms = kHorizonMs / 4;
  c.fault.straggler_duration_ms = kHorizonMs / 4;
  const std::vector<TraceEvent> events = FaultTrace(c);
  ASSERT_FALSE(events.empty());
  EXPECT_GT(CountType(events, TraceEventType::kDpnSlowdown), 0u);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    EXPECT_GE(e.time, 0);
    EXPECT_LT(e.time, MsToTime(kHorizonMs));
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, e.time);
    }
    if (e.type != TraceEventType::kAbort &&
        e.type != TraceEventType::kFaultBackoff) {
      EXPECT_GE(e.node, 0);
      EXPECT_LT(e.node, c.machine.num_nodes);
    }
  }
}

// Per node, crash and repair strictly alternate starting with a crash (a
// down node cannot fail again; an up node cannot be repaired).
TEST(FaultPlanTest, CrashRepairAlternatePerNode) {
  SimConfig c = ChurnConfig();
  c.machine.num_nodes = 4;
  c.run.seed = 11;
  std::vector<bool> down(4, false);
  size_t crashes = 0;
  for (const TraceEvent& e : FaultTrace(c, IsCrashOrRepair)) {
    if (e.type == TraceEventType::kDpnCrash) {
      EXPECT_FALSE(down[static_cast<size_t>(e.node)]) << "double crash";
      down[static_cast<size_t>(e.node)] = true;
      ++crashes;
    } else {
      EXPECT_TRUE(down[static_cast<size_t>(e.node)]) << "repair while up";
      down[static_cast<size_t>(e.node)] = false;
    }
  }
  EXPECT_GT(crashes, 0u);
}

// Each node forks its own stream, so the crash count grows with the node
// count.
TEST(FaultPlanTest, CrashCountScalesWithNodes) {
  SimConfig c = ChurnConfig();
  c.fault = FaultConfig{};
  c.fault.dpn_mttf_ms = 30'000;
  c.fault.dpn_mttr_ms = 10'000;
  c.run.seed = 5;
  c.machine.num_nodes = 2;
  const size_t small =
      CountType(FaultTrace(c, IsCrashOrRepair), TraceEventType::kDpnCrash);
  c.machine.num_nodes = 16;
  const size_t large =
      CountType(FaultTrace(c, IsCrashOrRepair), TraceEventType::kDpnCrash);
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace wtpgsched
