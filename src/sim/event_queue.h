#ifndef WTPG_SCHED_SIM_EVENT_QUEUE_H_
#define WTPG_SCHED_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/inplace_function.h"

namespace wtpgsched {

// A time-ordered queue of callbacks. Events at equal timestamps fire in
// insertion order (FIFO), which makes simulations deterministic.
//
// The queue is allocation-free in steady state: callbacks store their
// captures inline (InplaceFunction — a capture that outgrows the budget is
// a compile error, not a heap fallback) in a slab recycled through a free
// list, and a binary min-heap of small (time, seq, slot) keys orders them.
// The simulator keeps only a handful of events pending, so the plain
// std::push_heap / std::pop_heap pair is all the ordering it needs.
class EventQueue {
 public:
  // Inline capture budget for event callbacks. The largest kernel captures
  // today are three words, 24 bytes: the CN message's [this, id, inc], the
  // cohort completion's [this, id, node] and the round-robin slice's
  // [this, id, slice]. 48 leaves headroom without bloating the slab
  // records.
  static constexpr size_t kInlineCallbackBytes = 48;
  using Callback = InplaceFunction<void(), kInlineCallbackBytes>;

  struct Event {
    SimTime time;
    Callback callback;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues `cb` to fire at absolute time `at`.
  void Schedule(SimTime at, Callback cb);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Timestamp of the next event; kSimTimeMax when empty.
  SimTime NextTime() const;

  // Pops and returns the next event. Requires !empty().
  Event Pop();

 private:
  static constexpr uint32_t kNullSlot = 0xffffffffu;

  // One slab slot: a callback, or a free-list link while the slot is free.
  struct Record {
    uint32_t next_free = kNullSlot;
    Callback callback;
  };

  // Heap key: the sequence number is the FIFO tiebreak for equal
  // timestamps; at 64 bits it never wraps.
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  // The std heap algorithms build a max-heap, so "less" means "fires later".
  static bool Later(const Key& a, const Key& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<Record> slab_;
  std::vector<Key> heap_;
  uint32_t free_head_ = kNullSlot;
  uint64_t next_seq_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_EVENT_QUEUE_H_
