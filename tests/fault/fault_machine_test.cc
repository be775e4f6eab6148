// Machine-level fault injection: crashed DPNs fail their resident cohorts
// and the victims restart cleanly; stragglers stretch scans; injected
// aborts pick deterministic victims; and none of it leaks scheduler state
// (lock table entries, WTPG nodes, C2PL's durable orders) or breaks the
// jobs-invariance contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/sim_run.h"
#include "machine/machine.h"
#include "sched/c2pl.h"
#include "sched/scheduler.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

SimConfig BaseConfig(SchedulerKind kind) {
  SimConfig c;
  c.scheduler = kind;
  c.machine.num_files = 16;
  c.workload.arrival_rate_tps = 1.0;
  c.workload.max_arrivals = 30;
  c.run.horizon_ms = 2'000'000;
  c.run.seed = 1;
  return c;
}

uint64_t Counter(const std::vector<std::pair<std::string, uint64_t>>& counters,
                 const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

uint64_t Counter(const RunStats& stats, const std::string& name) {
  return Counter(stats.counters, name);
}

bool HasFaultCounters(const RunStats& stats) {
  for (const auto& [key, value] : stats.counters) {
    (void)value;
    if (key.rfind("fault.", 0) == 0) return true;
  }
  return false;
}

// Structural leak check after a run: every lock in the table belongs to a
// transaction the scheduler still considers active, the graph of GOW and
// LOW holds exactly the active transactions, and C2PL's durable orders name
// only active ones.
void ExpectNoSchedulerLeaks(Machine& machine) {
  const Scheduler& sched = machine.scheduler();
  const auto& active = sched.active();
  const int num_files = machine.config().machine.num_files;
  for (FileId file = 0; file < num_files; ++file) {
    for (const auto& holder : sched.lock_table().HoldersOf(file)) {
      EXPECT_TRUE(active.count(holder.txn) > 0)
          << "F" << file << " locked by non-active T" << holder.txn;
    }
  }
  if (const auto* wtpg = dynamic_cast<const WtpgSchedulerBase*>(&sched)) {
    EXPECT_EQ(wtpg->graph().num_nodes(), active.size());
    for (const auto& [id, txn] : active) {
      (void)txn;
      EXPECT_TRUE(wtpg->graph().HasNode(id)) << "active T" << id;
    }
  }
  if (const auto* c2pl = dynamic_cast<const C2plScheduler*>(&sched)) {
    for (const auto& [from, to] : c2pl->durable_orders()) {
      EXPECT_TRUE(active.count(from) > 0 && active.count(to) > 0)
          << "durable order T" << from << " -> T" << to;
    }
  }
}

TEST(FaultMachineTest, CrashChurnDrainsCleanly) {
  SimConfig c = BaseConfig(SchedulerKind::kTwoPl);
  c.fault.dpn_mttf_ms = 200'000;
  c.fault.dpn_mttr_ms = 15'000;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  const uint64_t crashes = Counter(stats, "fault.crashes");
  const uint64_t repairs = Counter(stats, "fault.repairs");
  EXPECT_GT(crashes, 0u);
  // Each node alternates crash/repair; at most one repair per node can fall
  // past the horizon.
  EXPECT_LE(repairs, crashes);
  EXPECT_GE(repairs + 8, crashes);
  EXPECT_GT(Counter(stats, "fault.crash_victims"), 0u);
  // Every arrival eventually commits: victims restart after backoff and
  // nothing is stranded on the dead node.
  EXPECT_EQ(stats.completions, 30u);
  EXPECT_EQ(machine.in_flight(), 0u);
  EXPECT_EQ(machine.scheduler().num_active(), 0u);
  EXPECT_EQ(machine.scheduler().lock_table().num_locked_files(), 0u);
}

TEST(FaultMachineTest, InjectedAbortsRestartVictims) {
  SimConfig c = BaseConfig(SchedulerKind::kLow);
  c.fault.abort_rate_per_s = 0.05;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  EXPECT_GT(Counter(stats, "fault.injected_aborts"), 0u);
  EXPECT_EQ(Counter(stats, "fault.injected_aborts"),
            Counter(stats, "fault.backoff_restarts"));
  EXPECT_EQ(stats.restarts, Counter(stats, "fault.backoff_restarts"));
  EXPECT_EQ(stats.completions, 30u);
  EXPECT_EQ(machine.in_flight(), 0u);
  EXPECT_EQ(machine.scheduler().lock_table().num_locked_files(), 0u);
}

TEST(FaultMachineTest, StragglersStretchScansButEveryoneCompletes) {
  SimConfig base = BaseConfig(SchedulerKind::kNodc);
  Machine clean_machine(base, Pattern::Experiment1(base.machine.num_files));
  const RunStats clean = clean_machine.Run();

  SimConfig c = base;
  c.fault.straggler_mtbf_ms = 60'000;
  c.fault.straggler_duration_ms = 60'000;
  c.fault.straggler_factor = 8.0;
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats slow = machine.Run();
  EXPECT_GT(Counter(slow, "fault.slowdowns"), 0u);
  EXPECT_EQ(slow.completions, 30u);
  // Same seed, same workload: the only difference is slower scans.
  EXPECT_GT(slow.mean_response_s, clean.mean_response_s);
}

TEST(FaultMachineTest, ZeroFaultRunRegistersNoFaultCounters) {
  SimConfig c = BaseConfig(SchedulerKind::kLow);
  Machine machine(c, Pattern::Experiment1(c.machine.num_files));
  const RunStats stats = machine.Run();
  EXPECT_FALSE(HasFaultCounters(stats));
  EXPECT_EQ(stats.completions, 30u);
}

// The abort storm: crashes, stragglers, and injected aborts all at once,
// against every scheduler family. The horizon is too short to drain, so
// the assertion is purely structural: no orphaned locks, no orphaned WTPG
// nodes, active set consistent. This is the suite the sanitizer presets
// run to prove fault aborts free of leaks and races.
TEST(FaultMachineTest, AbortStormLeavesNoLeaks) {
  const SchedulerKind kinds[] = {
      SchedulerKind::kNodc, SchedulerKind::kAsl,  SchedulerKind::kC2pl,
      SchedulerKind::kOpt,  SchedulerKind::kGow,  SchedulerKind::kLow,
      SchedulerKind::kLowLb, SchedulerKind::kTwoPl,
  };
  for (SchedulerKind kind : kinds) {
    SimConfig c = BaseConfig(kind);
    c.workload.max_arrivals = 0;  // Arrivals all the way to the horizon.
    c.workload.arrival_rate_tps = 1.2;
    c.run.horizon_ms = 400'000;
    c.fault.dpn_mttf_ms = 30'000;
    c.fault.dpn_mttr_ms = 10'000;
    c.fault.straggler_mtbf_ms = 60'000;
    c.fault.abort_rate_per_s = 0.1;
    Machine machine(c, Pattern::Experiment1(c.machine.num_files));
    const RunStats stats = machine.Run();
    SCOPED_TRACE(SchedulerKindName(kind));
    EXPECT_GT(Counter(stats, "fault.crashes"), 0u);
    EXPECT_GT(Counter(stats, "fault.backoff_restarts"), 0u);
    ExpectNoSchedulerLeaks(machine);
  }
}

// The determinism contract extends to fault runs: the fault draws and
// every downstream effect depend only on the replica seed, so fanning the
// seeds across any worker count reproduces the serial bytes.
TEST(FaultMachineTest, FaultRunsAreJobsInvariant) {
  SimConfig c = BaseConfig(SchedulerKind::kTwoPl);
  c.workload.max_arrivals = 0;
  c.run.horizon_ms = 400'000;
  c.fault.dpn_mttf_ms = 60'000;
  c.fault.dpn_mttr_ms = 15'000;
  c.fault.straggler_mtbf_ms = 120'000;
  c.fault.abort_rate_per_s = 0.02;
  const Pattern pattern = Pattern::Experiment1(c.machine.num_files);
  const AggregateResult serial = RunAggregate(c, pattern, 4, /*jobs=*/1);
  const AggregateResult fanned = RunAggregate(c, pattern, 4, /*jobs=*/4);
  EXPECT_EQ(serial.ToJson(), fanned.ToJson());
  EXPECT_GT(Counter(serial.counters, "fault.crashes"), 0u);
}

// Seeds differ -> fault draws differ -> results differ (no accidental seed
// aliasing between the fault streams and the workload streams).
TEST(FaultMachineTest, DifferentSeedsDifferentChurn) {
  SimConfig c = BaseConfig(SchedulerKind::kTwoPl);
  c.workload.max_arrivals = 0;
  c.run.horizon_ms = 400'000;
  c.fault.dpn_mttf_ms = 60'000;
  const Pattern pattern = Pattern::Experiment1(c.machine.num_files);
  const RunStats a = RunSimulation(c, pattern);
  c.run.seed = 2;
  const RunStats b = RunSimulation(c, pattern);
  EXPECT_NE(a.ToJson(), b.ToJson());
}

// A draw beyond the clock range ends its source: at these seeds the first
// crash draw of some node lies past what a SimTime can hold, and the run
// completes without a crash instead of overflowing the conversion to ticks.
TEST(FaultMachineTest, DrawsBeyondTheClockRangeEndTheirSource) {
  for (uint64_t seed : {3, 4, 5}) {
    SimConfig c = BaseConfig(SchedulerKind::kLow);
    c.workload.max_arrivals = 5;
    c.run.seed = seed;
    c.fault.dpn_mttf_ms = 4e15;
    Machine machine(c, Pattern::Experiment1(c.machine.num_files));
    const RunStats stats = machine.Run();
    EXPECT_EQ(Counter(stats, "fault.crashes"), 0u) << "seed " << seed;
    EXPECT_EQ(stats.completions, 5u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wtpgsched
