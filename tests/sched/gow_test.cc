#include "sched/gow.h"

#include <gtest/gtest.h>

#include "test_txns.h"

namespace wtpgsched {
namespace {

GowScheduler MakeGow() {
  return GowScheduler(/*toptime=*/MsToTime(5.0), /*chaintime=*/MsToTime(30.0));
}

TEST(GowTest, CostsMatchTable1) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0});
  EXPECT_EQ(sched.StartupDecisionCost(), MsToTime(5.0));
  EXPECT_EQ(sched.LockDecisionCost(t1, 0), MsToTime(30.0));
}

TEST(GowTest, AdmitsWhileChainForm) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  Transaction t3 = MakeXTxn(3, {2, 3});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kGrant);  // Chain 1-2-3.
}

TEST(GowTest, RejectsChainBreakingStartup) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  Transaction t3 = MakeXTxn(3, {2, 3});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  // t4 conflicts with mid-chain t2 (degree 2 already): reject.
  Transaction t4 = MakeXTxn(4, {1});
  EXPECT_EQ(sched.OnStartup(t4).kind, DecisionKind::kReject);
  EXPECT_EQ(sched.chain_rejections(), 1u);
  EXPECT_EQ(sched.num_active(), 3u);
}

TEST(GowTest, RejectsCycleClosingStartup) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  // t3 conflicting with both endpoints of the same chain closes a cycle.
  Transaction t3 = MakeXTxn(3, {0, 2});
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kReject);
}

TEST(GowTest, RejectedStartupCanRetryAfterCommit) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  Transaction t3 = MakeXTxn(3, {2, 3});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnStartup(t3);
  Transaction t4 = MakeXTxn(4, {1});
  ASSERT_EQ(sched.OnStartup(t4).kind, DecisionKind::kReject);
  sched.OnCommit(t2);
  EXPECT_EQ(sched.OnStartup(t4).kind, DecisionKind::kGrant);
}

TEST(GowTest, Phase1BlocksOnHeldLock) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0});
  Transaction t2 = MakeXTxn(2, {0});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kBlock);
}

TEST(GowTest, DelaysGrantInconsistentWithOptimalOrder) {
  // Two transactions conflict on file 0; the optimal order wants the short
  // remaining side first. t1's total declared cost is tiny, t2's is huge:
  // a request by t2 determining t2 -> t1 must be delayed when the optimal
  // order says t1 -> t2 (w(t2->t1) >> w(t1->t2) and W0(t2) >> W0(t1)).
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxnCosts(1, {{5, 0.1}, {0, 0.1}});
  Transaction t2 = MakeXTxnCosts(2, {{6, 50.0}, {0, 50.0}});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  // t2 asks for file 0 first (its step 1): would orient t2 -> t1.
  // W = optimal order prefers t1 first: critical path for t1->t2 is
  // W0(t1) + w(t1->t2) = 0.2 + 50 vs t2 -> t1: W0(t2) + w(t2->t1) = 100.2.
  Transaction* t2p = &t2;
  t2p->AdvanceStep();  // Pretend step 0 already ran; requesting step 1.
  EXPECT_EQ(sched.OnLockRequest(t2, 1).kind, DecisionKind::kDelay);
  // The other side is consistent with W and goes through.
  t1.AdvanceStep();
  EXPECT_EQ(sched.OnLockRequest(t1, 1).kind, DecisionKind::kGrant);
}

TEST(GowTest, GrantWithNoConflictersTrivial) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {7});
  sched.OnStartup(t1);
  EXPECT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
}

TEST(GowTest, DelayWhenOrderAlreadyDeterminedAgainstRequester) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 0});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  ASSERT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);  // 1->2.
  // t2 requesting file 1 (its step 0) would force 2 -> 1: delay.
  EXPECT_EQ(sched.OnLockRequest(t2, 0).kind, DecisionKind::kDelay);
}

TEST(GowTest, CommitShrinksChainAndGraph) {
  GowScheduler sched = MakeGow();
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  sched.OnLockRequest(t1, 0);
  sched.OnCommit(t1);
  EXPECT_EQ(sched.graph().num_nodes(), 1u);
  EXPECT_EQ(sched.num_active(), 1u);
}

}  // namespace
}  // namespace wtpgsched
