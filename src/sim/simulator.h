#ifndef WTPG_SCHED_SIM_SIMULATOR_H_
#define WTPG_SCHED_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace wtpgsched {

// Discrete-event simulation driver: a clock plus an event queue. Components
// (servers, workload sources, the machine model) hold a Simulator* and
// schedule callbacks on it.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `cb` `delay` after the current time. Negative delays are a
  // programming error (CHECK-fails): they always indicate a cost-accounting
  // bug upstream.
  void ScheduleAfter(SimTime delay, EventQueue::Callback cb);

  // Schedules `cb` at absolute time `at` (>= Now()).
  void ScheduleAt(SimTime at, EventQueue::Callback cb);

  // Runs events in order until the queue drains or the clock would pass
  // `horizon`. Events scheduled exactly at `horizon` are executed. The clock
  // is left at min(horizon, last event time).
  void RunUntil(SimTime horizon);

  // Runs until the event queue is empty.
  void RunToCompletion() { RunUntil(kSimTimeMax); }

  // Executes at most one pending event. Returns false if none remained or
  // the next event lies beyond `horizon` (clock untouched in that case).
  bool Step(SimTime horizon = kSimTimeMax);

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return events_.size(); }

  // True when a continuation due at Now() may run inline instead of as an
  // event scheduled now: no other event is due at Now(), so it would be the
  // next event executed anyway.
  bool CanContinueInline() const { return events_.NextTime() > now_; }

 private:
  EventQueue events_;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_SIMULATOR_H_
