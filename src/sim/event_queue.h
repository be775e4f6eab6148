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
// The queue is allocation-free in steady state: event records live in a
// slab recycled through a free list, callbacks store their captures inline
// (InplaceFunction — a capture that outgrows the budget is a compile
// error, not a heap fallback), and Cancel() removes its entry from the
// indexed 4-ary heap in place in O(log n). There are no tombstones and no
// compaction sweeps; heap_entries() == size() always.
class EventQueue {
 public:
  // Inline capture budget for event callbacks. The largest kernel captures
  // today are three words (the CN message's [this, id, inc] and the
  // round-robin slice's [this, id, slice], 24 bytes); 48 leaves headroom
  // without bloating the slab records.
  static constexpr size_t kInlineCallbackBytes = 48;
  using Callback = InplaceFunction<void(), kInlineCallbackBytes>;
  using EventId = uint64_t;

  struct Event {
    SimTime time;
    EventId id;
    Callback callback;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues `cb` to fire at absolute time `at`. Returns an id usable with
  // Cancel(). Ids are never reused (a slot's generation advances on every
  // recycle), so a stale id fails Cancel() instead of hitting a new event.
  EventId Schedule(SimTime at, Callback cb);

  // Cancels a scheduled event, removing it from the heap in place. Returns
  // false if the event already fired or was already cancelled.
  bool Cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Heap entries — always equal to size() since the indexed-heap rewrite
  // removed tombstones. Kept as an observability/test hook.
  size_t heap_entries() const { return heap_.size(); }

  // Timestamp of the next event; kSimTimeMax when empty.
  SimTime NextTime() const;

  // Pops and returns the next event. Requires !empty().
  Event Pop();

 private:
  static constexpr uint32_t kNullIndex = 0xffffffffu;

  // One slab slot: callback storage plus recycling bookkeeping. Lives
  // forever; recycled through the free list. Deliberately key-free: slab
  // records are large (the inline callback) and are touched once per event
  // at Schedule and Pop; everything the per-sift-level work needs lives in
  // the two small dense arrays below (heap_, heap_slot_of_).
  struct Record {
    uint32_t generation = 0;
    uint32_t next_free = kNullIndex;
    Callback callback;
  };

  // Heap entry: ordering key + slab index, packed to 16 bytes so a cache
  // line holds four and sift comparisons walk contiguous memory. The
  // sequence number is the FIFO tiebreak for equal timestamps (the role
  // the monotonic EventId played before the rewrite); it is 32-bit with
  // wraparound compare — correct as long as no two coexisting equal-time
  // events are more than 2^31 schedules apart, which would require 2^31
  // pending events.
  struct HeapEntry {
    SimTime time;
    uint32_t seq;
    uint32_t idx;
  };
  static_assert(sizeof(HeapEntry) == 16, "keep heap entries one half-line");

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | index;
  }

  // Min-heap order on (time, seq). The seq compare is wraparound-aware.
  // Written with non-short-circuiting operators on purpose: both halves are
  // a couple of cycles, and a branch-free compare lets the min-of-children
  // selection in the sift loops compile to conditional moves instead of
  // data-dependent (hence unpredictable) branches.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return (a.time < b.time) |
           ((a.time == b.time) &
            (static_cast<int32_t>(a.seq - b.seq) < 0));
  }

  void SiftUp(size_t slot);

  // Removes the record at heap position `slot`, restoring the heap. Uses
  // the bottom-up ("hole") variant: the hole sinks to a leaf along the
  // min-child path (d-1 comparisons per level), then the back filler sifts
  // up — it came from the bottom, so it almost always stays at the leaf.
  void RemoveFromHeap(size_t slot);

  // Recycles a slab slot: bumps the generation (invalidating outstanding
  // ids) and pushes it onto the free list.
  void Free(uint32_t index);

  // 4-ary: shallower than binary for the same size, and the four children
  // sit in one-two cache lines of the heap array.
  static constexpr size_t kArity = 4;

  std::vector<Record> slab_;
  std::vector<HeapEntry> heap_;
  // Slab index -> heap slot (kNullIndex when free), kept apart from the
  // slab so the per-level writes during sifts stay in a small hot array.
  std::vector<uint32_t> heap_slot_of_;
  uint32_t free_head_ = kNullIndex;
  uint32_t next_seq_ = 1;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_EVENT_QUEUE_H_
