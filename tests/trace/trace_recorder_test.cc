#include "trace/trace_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "metrics/counters.h"

namespace wtpgsched {
namespace {

TraceEvent At(SimTime t, TraceEventType type = TraceEventType::kArrive,
              TxnId txn = 1) {
  return TraceEvent{.time = t, .type = type, .txn = txn};
}

TEST(TraceRecorderTest, DisabledByDefaultRecordsNothing) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.Record(At(10));
  rec.Record(At(20, TraceEventType::kCommit));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(TraceRecorderTest, DisabledExportsNoCounters) {
  TraceRecorder rec;
  rec.Record(At(10));
  CounterRegistry registry;
  rec.ExportCounters(&registry);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder rec;
  rec.Enable(8);
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 8u);
  rec.Record(At(10, TraceEventType::kArrive, 1));
  rec.Record(At(20, TraceEventType::kAdmit, 1));
  rec.Record(At(30, TraceEventType::kCommit, 1));
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[0].type, TraceEventType::kArrive);
  EXPECT_EQ(events[1].time, 20);
  EXPECT_EQ(events[1].type, TraceEventType::kAdmit);
  EXPECT_EQ(events[2].time, 30);
  EXPECT_EQ(events[2].type, TraceEventType::kCommit);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.total_recorded(), 3u);
}

TEST(TraceRecorderTest, RingKeepsMostRecentAndCountsDropped) {
  TraceRecorder rec;
  rec.Enable(4);
  for (SimTime t = 0; t < 10; ++t) rec.Record(At(t));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first over the surviving window.
  EXPECT_EQ(events[0].time, 6);
  EXPECT_EQ(events[1].time, 7);
  EXPECT_EQ(events[2].time, 8);
  EXPECT_EQ(events[3].time, 9);
}

// A capacity far beyond memory must not be reserved up front: the ring
// grows only as events arrive.
TEST(TraceRecorderTest, HugeCapacityGrowsAsEventsArrive) {
  TraceRecorder rec;
  const size_t huge = 1'000'000'000'000'000;
  rec.Enable(huge);
  EXPECT_EQ(rec.capacity(), huge);
  for (SimTime t = 0; t < 5; ++t) rec.Record(At(t));
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (SimTime t = 0; t < 5; ++t) EXPECT_EQ(events[t].time, t);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorderTest, TypeCountsCoverDroppedEvents) {
  TraceRecorder rec;
  rec.Enable(2);
  for (SimTime t = 0; t < 5; ++t) rec.Record(At(t, TraceEventType::kArrive));
  for (SimTime t = 5; t < 8; ++t) {
    rec.Record(At(t, TraceEventType::kLockGrant));
  }
  // The ring only holds two events, but per-type counts span the run.
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.type_count(TraceEventType::kArrive), 5u);
  EXPECT_EQ(rec.type_count(TraceEventType::kLockGrant), 3u);
  EXPECT_EQ(rec.type_count(TraceEventType::kCommit), 0u);
  EXPECT_EQ(rec.total_recorded(), 8u);
}

TEST(TraceRecorderTest, ExportCountersAddsNonZeroTypesAndDropped) {
  TraceRecorder rec;
  rec.Enable(2);
  rec.Record(At(1, TraceEventType::kArrive));
  rec.Record(At(2, TraceEventType::kArrive));
  rec.Record(At(3, TraceEventType::kCommit));  // Overwrites; dropped = 1.
  CounterRegistry registry;
  rec.ExportCounters(&registry);
  EXPECT_EQ(registry.Get("trace.arrive"), 2u);
  EXPECT_EQ(registry.Get("trace.commit"), 1u);
  EXPECT_EQ(registry.Get("trace.dropped"), 1u);
  // Zero-count types are not registered.
  EXPECT_EQ(registry.size(), 3u);
}

TEST(TraceRecorderTest, NowStampIsSettable) {
  TraceRecorder rec;
  EXPECT_EQ(rec.now(), 0);
  rec.set_now(12345);
  EXPECT_EQ(rec.now(), 12345);
}

TEST(TraceRecorderTest, EveryTypeHasAName) {
  for (size_t i = 0; i < static_cast<size_t>(TraceEventType::kNumTypes);
       ++i) {
    EXPECT_STRNE(TraceEventTypeName(static_cast<TraceEventType>(i)), "?");
  }
}

}  // namespace
}  // namespace wtpgsched
