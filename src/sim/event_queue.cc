#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace wtpgsched {

void EventQueue::Schedule(SimTime at, Callback cb) {
  uint32_t slot = free_head_;
  if (slot != kNullSlot) {
    free_head_ = slab_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot].callback = std::move(cb);
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

SimTime EventQueue::NextTime() const {
  return heap_.empty() ? kSimTimeMax : heap_.front().time;
}

EventQueue::Event EventQueue::Pop() {
  WTPG_CHECK(!heap_.empty()) << "Pop() on empty EventQueue";
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  const Key top = heap_.back();
  heap_.pop_back();
  Record& r = slab_[top.slot];
  Event event{top.time, std::move(r.callback)};
  r.next_free = free_head_;
  free_head_ = top.slot;
  return event;
}

}  // namespace wtpgsched
