#include "sim/simulator.h"

#include <utility>

#include "util/logging.h"

namespace wtpgsched {

EventQueue::EventId Simulator::ScheduleAfter(SimTime delay,
                                             EventQueue::Callback cb) {
  // A negative delay is always an upstream cost-accounting bug; silently
  // clamping it to "now" would mask it.
  WTPG_CHECK_GE(delay, 0) << "negative delay passed to ScheduleAfter";
  return events_.Schedule(now_ + delay, std::move(cb));
}

EventQueue::EventId Simulator::ScheduleAt(SimTime at, EventQueue::Callback cb) {
  WTPG_CHECK_GE(at, now_) << "cannot schedule events in the past";
  return events_.Schedule(at, std::move(cb));
}

bool Simulator::Step(SimTime horizon) {
  const SimTime next = events_.NextTime();
  if (next == kSimTimeMax || next > horizon) return false;
  EventQueue::Event event = events_.Pop();
  WTPG_CHECK_GE(event.time, now_);
  now_ = event.time;
  ++events_executed_;
  event.callback();
  return true;
}

void Simulator::RunUntil(SimTime horizon) {
  while (Step(horizon)) {
  }
  if (horizon != kSimTimeMax && now_ < horizon) now_ = horizon;
}

}  // namespace wtpgsched
