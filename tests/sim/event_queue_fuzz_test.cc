// Differential fuzz for the EventQueue: drive it and a naive sorted-list
// reference through randomized schedule/pop interleavings and assert they
// agree on everything observable — pop order (including FIFO ties at equal
// timestamps), NextTime, and size. Seeded and deterministic.

#include "sim/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

// The reference: a vector kept sorted by (time, insertion seq). O(n) per
// operation, obviously correct.
class ReferenceQueue {
 public:
  struct Event {
    SimTime time;
    uint64_t seq;
    int tag;
  };

  void Schedule(SimTime time, int tag) {
    Event e{time, next_seq_++, tag};
    auto pos = std::upper_bound(
        list_.begin(), list_.end(), e, [](const Event& a, const Event& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    list_.insert(pos, e);
  }

  Event Pop() {
    Event e = list_.front();
    list_.erase(list_.begin());
    return e;
  }

  SimTime NextTime() const { return list_.empty() ? kSimTimeMax : list_.front().time; }
  size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

 private:
  std::vector<Event> list_;
  uint64_t next_seq_ = 1;
};

TEST(EventQueueFuzzTest, MatchesSortedListReferenceOver10kOps) {
  std::mt19937 rng(20260807);
  // Few distinct timestamps so equal-time FIFO ties are common; schedules
  // and pops are equally likely, so the depth wanders from empty to about
  // a hundred.
  std::uniform_int_distribution<SimTime> time_dist(0, 49);
  std::uniform_int_distribution<int> op_dist(0, 99);

  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> popped_q, popped_ref;
  int next_tag = 0;

  for (int op = 0; op < 10'000; ++op) {
    const int roll = op_dist(rng);
    if (roll < 50 || q.empty()) {
      const SimTime t = time_dist(rng);
      const int tag = next_tag++;
      q.Schedule(t, [tag, &popped_q] { popped_q.push_back(tag); });
      ref.Schedule(t, tag);
    } else {
      ASSERT_EQ(q.NextTime(), ref.NextTime()) << "op " << op;
      EventQueue::Event e = q.Pop();
      const ReferenceQueue::Event r = ref.Pop();
      ASSERT_EQ(e.time, r.time) << "op " << op;
      e.callback();
      popped_ref.push_back(r.tag);
      ASSERT_EQ(popped_q.back(), popped_ref.back())
          << "pop order diverged at op " << op;
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
  }

  // Drain both queues; the tails must match too.
  while (!q.empty()) {
    ASSERT_EQ(q.NextTime(), ref.NextTime());
    EventQueue::Event e = q.Pop();
    const ReferenceQueue::Event r = ref.Pop();
    ASSERT_EQ(e.time, r.time);
    e.callback();
    popped_ref.push_back(r.tag);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(popped_q, popped_ref);
}

}  // namespace
}  // namespace wtpgsched
