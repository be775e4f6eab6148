// Differential tests of the control node's admission sweep (Machine::
// RetestBatch): a batch decides each admission class of parked startups
// once and accounts the rest of a refused class by arithmetic. Two
// references check it, on the refusal paths of ASL, LOW, C2PL+M and LOW
// under the batch_mpl gate, past saturation, with faults off and on. A
// fifth case, "asl-readers", parks many readers of the same two files, so
// one release admits several members of a class in one batch:
//
//  (a) tracing on: a traced batch walks its members one by one to write
//      each refusal's admission_delayed record, and counts each refusal as
//      it passes it. The counters (low.k_rejections, admission.gated,
//      sched.decision_retries) and every other RunStats field must equal
//      the untraced run's.
//  (b) one step per event: a no-op event kept due at every instant where a
//      startup is decided makes every sweep complete one step per event, so
//      no verdict outlives its member's own step. RunStats and the trace
//      JSONL must equal the unforced run's exactly.

#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "test_temp_path.h"
#include "trace/trace_export.h"
#include "workload/pattern.h"
#include "workload/pattern_parser.h"

namespace wtpgsched {
namespace {

SimConfig CaseConfig(const std::string& name, bool faulty) {
  SimConfig c;
  const std::string flag = name == "c2pl-mpl"      ? "c2pl"
                           : name == "low-gated"   ? "low"
                           : name == "asl-readers" ? "asl"
                                                   : name;
  EXPECT_TRUE(ParseSchedulerKind(flag, &c.scheduler)) << name;
  if (name == "c2pl-mpl") c.machine.mpl = 8;
  if (name == "low-gated") c.machine.batch_mpl = 2;
  c.workload.arrival_rate_tps = 1.2;
  c.run.horizon_ms = 400'000;
  // Telemetry exports the decision-retry counter.
  c.run.telemetry_sample_ms = 10'000;
  if (faulty) {
    c.fault.dpn_mttf_ms = 150'000;
    c.fault.straggler_mtbf_ms = 200'000;
    c.fault.abort_rate_per_s = 0.02;
  }
  return c;
}

std::unique_ptr<Machine> MakeMachine(const std::string& name,
                                     const SimConfig& c) {
  if (name == "asl-readers") {
    // Three readers to one writer over four files: six read sets.
    const auto parse = [&](const std::string& text) {
      StatusOr<Pattern> pattern = ParsePattern(text, c.machine.num_files);
      EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
      return std::move(pattern).value();
    };
    return std::make_unique<Machine>(
        c, std::vector<WeightedPattern>{
               {parse("F1,F2 in [0,3]: r(F1:4) -> r(F2:4)"), 3.0, 0},
               {parse("F1,F2 in [0,3]: w(F1:2) -> w(F2:2)"), 1.0, 0}});
  }
  const Pattern pattern = Pattern::Experiment1(c.machine.num_files);
  if (name != "low-gated") return std::make_unique<Machine>(c, pattern);
  return std::make_unique<Machine>(
      c, std::vector<WeightedPattern>{{pattern, 1.0, 1}, {pattern, 1.0, 0}});
}

struct Outcome {
  RunStats stats;
  std::string trace_jsonl;  // Empty when not traced.
  std::vector<SimTime> decision_times;  // Distinct startup-decision instants.
  uint64_t events = 0;                  // Simulator events, no-ops excluded.
};

std::string ReadAndRemove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return out.str();
}

// Runs the case; `force_at` lists the instants at which a no-op event is
// kept due for as long as anything else is due at that instant.
Outcome RunCase(const std::string& name, bool faulty, bool traced,
                const std::vector<SimTime>& force_at = {}) {
  SimConfig c = CaseConfig(name, faulty);
  c.run.trace_enabled = traced;
  const std::unique_ptr<Machine> machine = MakeMachine(name, c);
  Simulator& sim = machine->simulator();
  uint64_t noops = 0;
  std::function<void()> noop = [&] {
    ++noops;
    if (!sim.CanContinueInline()) sim.ScheduleAfter(0, [&] { noop(); });
  };
  for (const SimTime t : force_at) sim.ScheduleAt(t, [&] { noop(); });
  Outcome out;
  out.stats = machine->Run();
  out.events = sim.events_executed() - noops;
  if (!traced) return out;
  EXPECT_EQ(machine->trace().dropped(), 0u);
  std::set<SimTime> times;
  const std::vector<TraceEvent> events = machine->trace().Snapshot();
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kAdmit ||
        e.type == TraceEventType::kAdmissionDelayed ||
        e.type == TraceEventType::kAdmissionRejected) {
      times.insert(e.time);
    }
  }
  out.decision_times.assign(times.begin(), times.end());
  TraceMeta meta;
  meta.scheduler = machine->scheduler().name();
  const std::string path = UniqueTempPath("trace.jsonl");
  EXPECT_TRUE(WriteJsonlTrace(events, meta, out.stats.counters,
                              machine->trace().dropped(), path)
                  .ok());
  out.trace_jsonl = ReadAndRemove(path);
  return out;
}

uint64_t CounterOf(const RunStats& stats, const std::string& name) {
  for (const auto& [counter, value] : stats.counters) {
    if (counter == name) return value;
  }
  return 0;
}

class SweepDiffTest
    : public testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SweepDiffTest, TracedCountsEqualArithmetic) {
  const auto& [name, faulty] = GetParam();
  const Outcome plain = RunCase(name, faulty, /*traced=*/false);
  Outcome traced = RunCase(name, faulty, /*traced=*/true);
  for (const char* counter :
       {"low.k_rejections", "admission.gated", "sched.decision_retries"}) {
    EXPECT_EQ(CounterOf(plain.stats, counter),
              CounterOf(traced.stats, counter))
        << counter;
  }
  EXPECT_GT(CounterOf(plain.stats, "sched.decision_retries"), 0u);
  if (name == "low" || name == "low-gated") {
    EXPECT_GT(CounterOf(plain.stats, "low.k_rejections"), 0u);
  }
  if (name == "low-gated") {
    EXPECT_GT(CounterOf(plain.stats, "admission.gated"), 0u);
  }
  // Apart from the trace's own counters, the runs agree field by field.
  std::erase_if(traced.stats.counters, [](const auto& counter) {
    return counter.first.starts_with("trace.");
  });
  EXPECT_TRUE(plain.stats == traced.stats);
}

TEST_P(SweepDiffTest, OneStepPerEventMatchesBatches) {
  const auto& [name, faulty] = GetParam();
  const Outcome batched = RunCase(name, faulty, /*traced=*/true);
  ASSERT_FALSE(batched.decision_times.empty());
  const Outcome forced =
      RunCase(name, faulty, /*traced=*/true, batched.decision_times);
  // The forcing took effect: sweep steps became events of their own.
  EXPECT_GT(forced.events, batched.events);
  EXPECT_TRUE(forced.stats == batched.stats);
  EXPECT_EQ(forced.trace_jsonl, batched.trace_jsonl);
}

INSTANTIATE_TEST_SUITE_P(
    Refusals, SweepDiffTest,
    testing::Combine(testing::Values("asl", "low", "c2pl-mpl", "low-gated",
                                     "asl-readers"),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(info.param) ? "_fault" : "_zero");
    });

}  // namespace
}  // namespace wtpgsched
