#include "sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.Pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.Pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeReflectsEarliest) {
  EventQueue q;
  q.Schedule(50, [] {});
  q.Schedule(20, [] {});
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
  q.Pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, InterleavedTimesPreserveOrderAndFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.Schedule(5, [&fired, i] { fired.push_back(i); });  // FIFO batch.
    q.Schedule(50 + i, [&fired, i] { fired.push_back(100 + i); });
  }
  q.Schedule(1, [&fired] { fired.push_back(-1); });
  while (!q.empty()) q.Pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 100, 101,
                                     102, 103, 104, 105, 106, 107}));
}

}  // namespace
}  // namespace wtpgsched
