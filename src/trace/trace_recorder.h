#ifndef WTPG_SCHED_TRACE_TRACE_RECORDER_H_
#define WTPG_SCHED_TRACE_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_event.h"

namespace wtpgsched {

class CounterRegistry;

// Ring-buffered recorder of TraceEvents. Disabled by default: Record() is a
// single predictable branch, no event is constructed by well-behaved call
// sites (guard expensive payload computation with enabled()), and no memory
// is allocated — a Machine embeds one unconditionally at zero cost.
//
// When enabled, the buffer holds the most recent `capacity` events; older
// events are overwritten and counted in dropped(). Per-type counts cover
// the whole run regardless of ring overflow.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  // Sets the ring capacity. Call once, before the run. Reserves at most the
  // default ring (1 << 20 events) up front; a larger ring grows as events
  // arrive, so a huge capacity costs only the events actually recorded.
  void Enable(size_t capacity);

  bool enabled() const { return enabled_; }

  // Simulated-time stamp used by call sites without a simulator reference
  // (schedulers, the lock table). The machine refreshes it on every event
  // it processes, before the scheduler hooks run.
  SimTime now() const { return now_; }
  void set_now(SimTime now) { now_ = now; }

  void Record(const TraceEvent& event) {
    if (!enabled_) return;
    ++type_counts_[static_cast<size_t>(event.type)];
    if (events_.size() < capacity_) {
      events_.push_back(event);
    } else {
      events_[head_] = event;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  // Events currently buffered, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  // Events overwritten after the ring filled up.
  uint64_t dropped() const { return dropped_; }
  // Total events recorded (including dropped ones), by type.
  uint64_t type_count(TraceEventType type) const {
    return type_counts_[static_cast<size_t>(type)];
  }
  uint64_t total_recorded() const;

  // Adds "trace.<type>" counters (non-zero types only) plus
  // "trace.dropped" to `registry`.
  void ExportCounters(CounterRegistry* registry) const;

 private:
  bool enabled_ = false;
  size_t capacity_ = 0;
  size_t head_ = 0;  // Oldest event once the ring is full.
  uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  uint64_t type_counts_[static_cast<size_t>(TraceEventType::kNumTypes)] = {};
  SimTime now_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TRACE_TRACE_RECORDER_H_
