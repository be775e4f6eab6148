#include "sched/c2pl.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_txns.h"

namespace wtpgsched {
namespace {

// Transaction whose steps lock the given files in the given modes, in order.
Transaction MakeModeTxn(TxnId id,
                        std::vector<std::pair<FileId, LockMode>> plan) {
  std::vector<StepSpec> steps;
  for (const auto& [file, mode] : plan) {
    steps.push_back({file, mode, mode, 1.0, 1.0});
  }
  return Transaction(id, std::move(steps));
}

// True when the C2PL precedence derived from the lock table, the pending
// declarations and the durable orders puts `before` ahead of `after`.
bool Precedes(const C2plScheduler& sched, TxnId before, TxnId after) {
  std::vector<TxnId> ancestors;
  sched.Ancestors(after, &ancestors);
  return std::find(ancestors.begin(), ancestors.end(), before) !=
         ancestors.end();
}

TEST(C2plTest, NameReflectsMpl) {
  EXPECT_EQ(C2plScheduler(0).name(), "C2PL");
  EXPECT_EQ(C2plScheduler(0, 4).name(), "C2PL+M4");
}

TEST(C2plTest, GrantsNonConflictingRequests) {
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0, 1});
  sched.OnStartup(t1);
  EXPECT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnLockRequest(t1, 1).kind, DecisionKind::kGrant);
}

TEST(C2plTest, BlocksOnHeldConflictingLock) {
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {0});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnLockRequest(t1, 0);
  const Decision d = sched.OnLockRequest(t2, 0);
  EXPECT_EQ(d.kind, DecisionKind::kBlock);
  EXPECT_EQ(d.file, 0);
}

TEST(C2plTest, DelaysDeadlockProneRequest) {
  // T1 takes A; T2 then asks for B while T1 has declared B: granting B to
  // T2 would determine T2 -> T1, but T1 -> T2 is already forced via A —
  // the request must be delayed (this is the deadlock 2PL would hit).
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 0});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  EXPECT_TRUE(Precedes(sched, 1, 2));
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kDelay);
}

TEST(C2plTest, DelayedRequestGrantableAfterCommit) {
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 0});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnLockRequest(t1, 0);
  ASSERT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kDelay);
  sched.OnLockRequest(t1, 1);
  sched.OnCommit(t1);
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kGrant);
}

TEST(C2plTest, TransitiveDeadlockPrediction) {
  // Precedence 1 -> 2 -> 3 established; a request by T3 that would force
  // T3 -> T1 must be delayed.
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0, 9});
  Transaction t2 = MakeXTxn(2, {0, 1});
  Transaction t3 = MakeXTxn(3, {1, 9});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);  // 1->2
  ASSERT_EQ(sched.OnLockRequest(t2, 1).kind, DecisionKind::kGrant);  // 2->3
  // T3 asking for file 9 would force 3 -> 1: cycle -> delay.
  EXPECT_EQ(sched.OnLockRequest(t3, 1).kind, DecisionKind::kDelay);
  // But T1 asking for 9 is fine.
  EXPECT_EQ(sched.OnLockRequest(t1, 1).kind, DecisionKind::kGrant);
}

TEST(C2plTest, AncestorPendingExclusiveDelaysSharedAndExclusive) {
  // T1 takes file 0 ahead of T2 and T3, so T1 precedes both; T1 still
  // declares X on file 5. Either request for file 5 would determine
  // requester -> T1 and close a cycle, whatever mode it asks for.
  constexpr LockMode kS = LockMode::kShared;
  constexpr LockMode kX = LockMode::kExclusive;
  C2plScheduler sched(0);
  Transaction t1 = MakeModeTxn(1, {{0, kX}, {5, kX}});
  Transaction t2 = MakeModeTxn(2, {{5, kS}, {0, kX}});
  Transaction t3 = MakeModeTxn(3, {{5, kX}, {0, kX}});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  ASSERT_TRUE(Precedes(sched, 1, 2));
  ASSERT_TRUE(Precedes(sched, 1, 3));
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.OnLockRequest(t3, 0).kind, DecisionKind::kDelay);
  EXPECT_EQ(sched.predicted_deadlocks(), 2u);
}

TEST(C2plTest, AncestorPendingSharedDoesNotDelaySharedRequest) {
  // T1 precedes T2 and declares S on file 5: an S request by T2 determines
  // no order against T1, so it is granted.
  constexpr LockMode kS = LockMode::kShared;
  constexpr LockMode kX = LockMode::kExclusive;
  C2plScheduler sched(0);
  Transaction t1 = MakeModeTxn(1, {{0, kX}, {5, kS}});
  Transaction t2 = MakeModeTxn(2, {{5, kS}, {0, kX}});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  ASSERT_TRUE(Precedes(sched, 1, 2));
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.predicted_deadlocks(), 0u);
}

TEST(C2plTest, NonAncestorPendingConflicterDoesNotDelay) {
  // T2's only ancestor is T1, which does not declare file 5; T3's X
  // declaration on file 5 conflicts but T3 does not reach T2, so the grant
  // just orders T2 before T3.
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {5, 0});
  Transaction t3 = MakeXTxn(3, {5});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  ASSERT_TRUE(Precedes(sched, 1, 2));
  EXPECT_FALSE(Precedes(sched, 3, 2));
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kGrant);
  EXPECT_TRUE(Precedes(sched, 2, 3));
  EXPECT_EQ(sched.predicted_deadlocks(), 0u);
}

TEST(C2plTest, AncestorsFollowReverseReachability) {
  // Grants fix 1 -> 2 (file 0) and 2 -> 3 (file 1).
  C2plScheduler sched(0);
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1, 0});
  Transaction t3 = MakeXTxn(3, {1});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  ASSERT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kGrant);
  std::vector<TxnId> found;
  sched.Ancestors(3, &found);
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<TxnId>{1, 2}));
  sched.Ancestors(2, &found);
  EXPECT_EQ(found, std::vector<TxnId>{1});
  sched.Ancestors(1, &found);
  EXPECT_TRUE(found.empty());
  sched.Descendants(1, &found);
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<TxnId>{2, 3}));
}

// Admission orders nothing; a grant orders the grantee before every
// pending conflicter, and only for as long as the conflicter waits.
TEST(C2plTest, GrantOrdersGranteeBeforePendingConflicters) {
  C2plScheduler sched(/*ddtime=*/0);
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  std::vector<TxnId> found;
  sched.Descendants(1, &found);
  EXPECT_TRUE(found.empty());
  sched.Descendants(2, &found);
  EXPECT_TRUE(found.empty());
  sched.OnLockRequest(t1, 1);  // T1 takes file 1 while T2 declares it.
  sched.Descendants(1, &found);
  EXPECT_EQ(found, std::vector<TxnId>{2});
  const Wtpg snapshot = sched.PrecedenceSnapshot();
  EXPECT_EQ(snapshot.num_nodes(), 2u);
  EXPECT_EQ(snapshot.num_edges(), 1u);
  EXPECT_TRUE(snapshot.IsOriented(1, 2));
  EXPECT_TRUE(snapshot.CheckInvariants());
  sched.OnLockRequest(t1, 0);
  sched.OnCommit(t1);
  sched.Ancestors(2, &found);
  EXPECT_TRUE(found.empty());
  EXPECT_TRUE(sched.durable_orders().empty());
}

// An order fixed through an intermediary outlives it. T1 -> T2 -> T3 with
// (T1, T3) conflicting: after T2 aborts, T3 granting a lock that would put
// T3 before T1 must still be recognized as a cycle.
TEST(C2plTest, DurableOrderSurvivesIntermediaryAbort) {
  C2plScheduler sched(/*ddtime=*/0);
  Transaction t1 = MakeXTxn(1, {0, 9});
  Transaction t2 = MakeXTxn(2, {0, 1});
  Transaction t3 = MakeXTxn(3, {1, 9});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);  // 1->2
  ASSERT_EQ(sched.OnLockRequest(t2, 1).kind, DecisionKind::kGrant);  // 2->3
  EXPECT_TRUE(sched.durable_orders().empty());
  sched.OnAbort(t2);  // Intermediary leaves; T1 ~> T3 must persist.
  EXPECT_EQ(sched.durable_orders(),
            (std::vector<std::pair<TxnId, TxnId>>{{1, 3}}));
  EXPECT_TRUE(Precedes(sched, 1, 3));
  EXPECT_EQ(sched.OnLockRequest(t3, 1).kind, DecisionKind::kDelay);
  sched.OnLockRequest(t1, 1);
  sched.OnCommit(t1);  // Either end leaving drops the order.
  EXPECT_TRUE(sched.durable_orders().empty());
  EXPECT_EQ(sched.OnLockRequest(t3, 1).kind, DecisionKind::kGrant);
}

TEST(C2plTest, MplLimitsAdmission) {
  C2plScheduler sched(0, /*mpl=*/2);
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {1});
  Transaction t3 = MakeXTxn(3, {2});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kBlock);
  sched.OnCommit(t1);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kGrant);
}

TEST(C2plTest, LockDecisionCostIsDdtime) {
  C2plScheduler sched(MsToTime(1.0));
  Transaction t1 = MakeXTxn(1, {0});
  EXPECT_EQ(sched.LockDecisionCost(t1, 0), MsToTime(1.0));
  EXPECT_EQ(sched.StartupDecisionCost(), 0);
}

TEST(C2plTest, NoRetryDelayedOnGrant) {
  C2plScheduler sched(0);
  EXPECT_FALSE(sched.traits().retry_delayed_on_grant);
}

TEST(C2plTest, SharedRequestsBothGranted) {
  C2plScheduler sched(0);
  Transaction t1 = MakeSTxn(1, {3});
  Transaction t2 = MakeSTxn(2, {3});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  EXPECT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kGrant);
}

}  // namespace
}  // namespace wtpgsched
