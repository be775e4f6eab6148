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
  // Hook for the sharded engine (sim/sharded_simulator.*): sees every
  // schedule/cancel so a deterministic merge key can be maintained per
  // pending event. Unset — one predictable branch per schedule — in serial
  // runs.
  class ScheduleObserver {
   public:
    virtual ~ScheduleObserver() = default;
    virtual void OnSchedule(EventQueue::EventId id, SimTime at) = 0;
    virtual void OnCancel(EventQueue::EventId id) = 0;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  void set_schedule_observer(ScheduleObserver* observer) {
    observer_ = observer;
  }

  // Schedules `cb` `delay` after the current time. Negative delays are a
  // programming error (CHECK-fails): they always indicate a cost-accounting
  // bug upstream.
  EventQueue::EventId ScheduleAfter(SimTime delay, EventQueue::Callback cb);

  // Schedules `cb` at absolute time `at` (>= Now()).
  EventQueue::EventId ScheduleAt(SimTime at, EventQueue::Callback cb);

  bool Cancel(EventQueue::EventId id) {
    const bool canceled = events_.Cancel(id);
    if (observer_ != nullptr && canceled) observer_->OnCancel(id);
    return canceled;
  }

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
  // next event executed anyway, and no schedule observer must see it.
  bool CanContinueInline() const {
    return observer_ == nullptr && events_.NextTime() > now_;
  }

  // --- Sharded-engine driver interface (sim/sharded_simulator.*) ---
  // These let an external merge loop interleave this queue's events with
  // cross-shard deliveries while keeping Step()'s bookkeeping.

  // Head event's time and id without popping; false when empty.
  bool PeekNext(SimTime* time, EventQueue::EventId* id) const;

  // Pops the head event, advances the clock to it and counts it as
  // executed; the caller invokes the callback. Requires !empty().
  EventQueue::Event PopForExecution();

  // Advances the clock without executing anything (cross-shard deliveries
  // fire at times between queue events). `to` must neither move backwards
  // nor pass the head event.
  void AdvanceClockTo(SimTime to);

 private:
  EventQueue events_;
  ScheduleObserver* observer_ = nullptr;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_SIMULATOR_H_
