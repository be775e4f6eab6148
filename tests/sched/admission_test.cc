#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include "sched/c2pl.h"
#include "test_txns.h"

namespace wtpgsched {
namespace {

// The priority-aware admission gate lives in the Scheduler base class and
// runs BEFORE every scheduler's own startup test; C2PL (the simplest
// concrete subclass) stands in for all of them. All transactions here touch
// disjoint files, so C2PL itself would grant every startup — any kDelay can
// only come from the gate.

TEST(AdmissionControlTest, DisabledByDefault) {
  C2plScheduler sched(/*ddtime=*/0);
  EXPECT_FALSE(sched.admission().enabled());
  for (TxnId id = 1; id <= 10; ++id) {
    Transaction t = MakeXTxn(id, {static_cast<FileId>(id)});
    EXPECT_EQ(sched.OnStartup(t).kind, DecisionKind::kGrant);
  }
  EXPECT_EQ(sched.admission_gated(), 0u);
  EXPECT_EQ(sched.active_low_priority(), 10u);  // Counted even when disabled.
}

TEST(AdmissionControlTest, GatesLowPriorityAtLimit) {
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/2});
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1});
  Transaction t3 = MakeXTxn(3, {2});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.active_low_priority(), 2u);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.admission_gated(), 1u);
  // The gated transaction was refused ahead of DecideStartup: it must not
  // have been registered with the scheduler or its declarations entered.
  EXPECT_EQ(sched.num_active(), 2u);
  EXPECT_EQ(sched.pending().Of(0).items.size(), 1u);
  EXPECT_EQ(sched.pending().Of(1).items.size(), 1u);
  EXPECT_TRUE(sched.pending().Of(2).items.empty());
}

TEST(AdmissionControlTest, HighPriorityBypassesGate) {
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/1});
  Transaction batch = MakeXTxn(1, {0});
  EXPECT_EQ(sched.OnStartup(batch).kind, DecisionKind::kGrant);
  // Low-priority slots are full; interactive (priority 1) startups still go
  // straight through, in any number.
  for (TxnId id = 2; id <= 6; ++id) {
    Transaction t = MakeXTxn(id, {static_cast<FileId>(id)});
    t.priority = 1;
    EXPECT_EQ(sched.OnStartup(t).kind, DecisionKind::kGrant);
  }
  EXPECT_EQ(sched.admission_gated(), 0u);
  EXPECT_EQ(sched.active_low_priority(), 1u);
  EXPECT_EQ(sched.num_active(), 6u);
}

TEST(AdmissionControlTest, CommitFreesSlot) {
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/1});
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kDelay);
  sched.OnCommit(t1);
  EXPECT_EQ(sched.active_low_priority(), 0u);
  // The machine retries parked startups after commits; the retry now lands.
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.active_low_priority(), 1u);
}

TEST(AdmissionControlTest, AbortFreesSlot) {
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/1});
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kDelay);
  sched.OnAbort(t1);
  EXPECT_EQ(sched.active_low_priority(), 0u);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
}

TEST(AdmissionControlTest, CutoffPartitionsPriorities) {
  // priority_cutoff = 2: priorities 0 and 1 are both "low" and share the
  // gate; only priority >= 2 bypasses it.
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/1,
                                       /*priority_cutoff=*/2});
  Transaction t1 = MakeXTxn(1, {0});
  t1.priority = 1;
  Transaction t2 = MakeXTxn(2, {1});
  t2.priority = 0;
  Transaction t3 = MakeXTxn(3, {2});
  t3.priority = 2;
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.admission_gated(), 1u);
}

TEST(AdmissionControlTest, EachGatedRetryCountsOnce) {
  C2plScheduler sched(0);
  sched.set_admission(AdmissionControl{/*low_priority_mpl=*/1});
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1});
  sched.OnStartup(t1);
  // Every refused (re)try increments the counter — it measures gate
  // pressure, not distinct transactions.
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.admission_gated(), 2u);
}

}  // namespace
}  // namespace wtpgsched
