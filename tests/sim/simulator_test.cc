#include "sim/simulator.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(MsToTime(1.0), 1000);
  EXPECT_EQ(MsToTime(0.5), 500);
  EXPECT_EQ(SecondsToTime(2.0), 2'000'000);
  EXPECT_DOUBLE_EQ(TimeToMs(1500), 1.5);
  EXPECT_DOUBLE_EQ(TimeToSeconds(2'500'000), 2.5);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleAfter(100, [&] { seen.push_back(sim.Now()); });
  sim.ScheduleAfter(50, [&] { seen.push_back(sim.Now()); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(10, [&] { ++fired; });
  sim.ScheduleAfter(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);  // Clock lands on the horizon.
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAfter(50, [&] { fired = true; });
  sim.RunUntil(50);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsScheduledDuringRun) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.ScheduleAfter(10, [&] {
    seen.push_back(sim.Now());
    sim.ScheduleAfter(5, [&] { seen.push_back(sim.Now()); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorDeathTest, NegativeDelayChecks) {
  // A negative delay is a cost-accounting bug upstream; it must fail
  // loudly instead of being clamped to "now".
  Simulator sim;
  EXPECT_DEATH(sim.ScheduleAfter(-5, [] {}), "negative delay");
  EXPECT_EQ(sim.Now(), 0);
}

// FcfsServer::SubmitSteps and the machine's sweeps run a continuation
// inline only when CanContinueInline() says it would be the next event
// anyway; both rest on same-instant events running in schedule order.
TEST(SimulatorTest, SameInstantEventsRunInScheduleOrder) {
  Simulator sim;
  // (tag, CanContinueInline()) as each event runs.
  std::vector<std::pair<int, bool>> seen;
  const auto record = [&](int tag) {
    seen.emplace_back(tag, sim.CanContinueInline());
  };
  EXPECT_TRUE(sim.CanContinueInline());  // Nothing due at Now() = 0.
  sim.ScheduleAt(10, [&] {
    record(1);
    // Scheduled at Now() from inside a callback: after 2 and 3, which were
    // already due, in the order scheduled here.
    sim.ScheduleAt(sim.Now(), [&] { record(4); });
    sim.ScheduleAfter(0, [&] { record(5); });
  });
  sim.ScheduleAt(10, [&] { record(2); });
  sim.ScheduleAt(10, [&] { record(3); });
  sim.ScheduleAt(20, [&] { record(6); });
  sim.RunToCompletion();
  // False exactly while another event is due at Now(): 5 is the last one
  // at 10 (6 waits at 20), and 6 runs on an empty queue.
  EXPECT_EQ(seen, (std::vector<std::pair<int, bool>>{{1, false},
                                                     {2, false},
                                                     {3, false},
                                                     {4, false},
                                                     {5, true},
                                                     {6, true}}));
}

TEST(SimulatorTest, StepReturnsFalsePastHorizon) {
  Simulator sim;
  sim.ScheduleAfter(100, [] {});
  EXPECT_FALSE(sim.Step(50));
  EXPECT_EQ(sim.Now(), 0);  // Untouched.
  EXPECT_TRUE(sim.Step(100));
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.ScheduleAfter(i, [] {});
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_executed(), 5u);
}

}  // namespace
}  // namespace wtpgsched
