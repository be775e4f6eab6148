#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include "sched/c2pl.h"
#include "test_txns.h"

namespace wtpgsched {
namespace {

// The WtpgSchedulerBase plumbing is exercised through a minimal subclass
// that grants every compatible request and orients its grants (conflict
// edges materialized at admission, forced closure maintained).
class DenseTestScheduler : public WtpgSchedulerBase {
 public:
  std::string name() const override { return "DenseTest"; }

 protected:
  Decision DecideStartup(Transaction& txn) override {
    (void)txn;
    return Decision{DecisionKind::kGrant, kInvalidFile};
  }
  void AfterAdmit(Transaction& txn) override { AddToGraph(txn); }
  Decision DecideLock(Transaction& txn, int step) override {
    const FileId file = txn.step(step).file;
    if (!lock_table_.CanGrant(file, txn.id(), txn.RequestModeAt(step))) {
      return Decision{DecisionKind::kBlock, file};
    }
    return Decision{DecisionKind::kGrant, file};
  }
  void AfterGrant(Transaction& txn, int step) override {
    OrientAfterGrant(txn, txn.step(step).file, txn.RequestModeAt(step));
  }
};

TEST(WtpgSchedulerBaseTest, AdmitBuildsGraphNodeAndEdges) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  Transaction t3 = MakeXTxn(3, {4, 5});
  EXPECT_EQ(sched.OnStartup(t1).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t2).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.OnStartup(t3).kind, DecisionKind::kGrant);
  EXPECT_EQ(sched.graph().num_nodes(), 3u);
  EXPECT_EQ(sched.graph().num_edges(), 1u);  // Only t1-t2 conflict (file 1).
  EXPECT_NE(sched.graph().FindEdge(1, 2), nullptr);
  EXPECT_EQ(sched.num_active(), 3u);
}

TEST(WtpgSchedulerBaseTest, GraphWeightsFromDeclarations) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxnCosts(1, {{0, 1.0}, {1, 3.0}});
  Transaction t2 = MakeXTxnCosts(2, {{2, 1.0}, {1, 2.0}, {3, 4.0}});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  const Wtpg::Edge* e = sched.graph().FindEdge(1, 2);
  ASSERT_NE(e, nullptr);
  // w(1->2): t2's declared cost from its first step conflicting with t1
  // (file 1 at step 1): 2 + 4 = 6. w(2->1): t1 from step 1: 3.
  EXPECT_DOUBLE_EQ(e->a == 1 ? e->weight_ab : e->weight_ba, 6.0);
  EXPECT_DOUBLE_EQ(e->a == 1 ? e->weight_ba : e->weight_ab, 3.0);
  // T0 weights are total declared costs.
  EXPECT_DOUBLE_EQ(sched.graph().remaining(1), 4.0);
  EXPECT_DOUBLE_EQ(sched.graph().remaining(2), 7.0);
}

TEST(WtpgSchedulerBaseTest, StepCompletionUpdatesT0Weight) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxnCosts(1, {{0, 1.0}, {1, 3.0}});
  sched.OnStartup(t1);
  sched.OnLockRequest(t1, 0);
  t1.AdvanceStep();
  sched.OnStepCompleted(t1, 0);
  EXPECT_DOUBLE_EQ(sched.graph().remaining(1), 3.0);
}

TEST(WtpgSchedulerBaseTest, HolderPreOrientedAgainstNewcomer) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxn(1, {0});
  sched.OnStartup(t1);
  EXPECT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  // t2 arrives wanting file 0: t1 already holds it, so t1 -> t2 is forced.
  Transaction t2 = MakeXTxn(2, {0, 1});
  sched.OnStartup(t2);
  EXPECT_TRUE(sched.graph().IsOriented(1, 2));
}

TEST(WtpgSchedulerBaseTest, CommitReleasesLocksAndGraphNode) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxn(1, {0, 1});
  sched.OnStartup(t1);
  sched.OnLockRequest(t1, 0);
  sched.OnLockRequest(t1, 1);
  std::vector<FileId> released = sched.OnCommit(t1);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(sched.graph().num_nodes(), 0u);
  EXPECT_EQ(sched.num_active(), 0u);
  EXPECT_EQ(sched.lock_table().NumHeldBy(1), 0u);
}

TEST(WtpgSchedulerBaseTest, GrantRecordsLock) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxn(1, {7});
  sched.OnStartup(t1);
  EXPECT_EQ(sched.OnLockRequest(t1, 0).kind, DecisionKind::kGrant);
  EXPECT_TRUE(sched.lock_table().HoldsSufficient(7, 1, LockMode::kExclusive));
}

TEST(WtpgSchedulerBaseTest, GrantOrientsAgainstPendingConflicters) {
  DenseTestScheduler sched;
  Transaction t1 = MakeXTxn(1, {0, 1});
  Transaction t2 = MakeXTxn(2, {1, 2});
  sched.OnStartup(t1);
  sched.OnStartup(t2);
  EXPECT_FALSE(sched.graph().FindEdge(1, 2)->oriented);
  sched.OnLockRequest(t1, 1);  // t1 takes file 1 first.
  EXPECT_TRUE(sched.graph().IsOriented(1, 2));
}

TEST(WtpgSchedulerBaseTest, DefaultCostsAreZero) {
  C2plScheduler sched(/*ddtime=*/MsToTime(1.0));
  Transaction t1 = MakeXTxn(1, {0});
  EXPECT_EQ(sched.StartupDecisionCost(t1), 0);
  EXPECT_EQ(sched.LockDecisionCost(t1, 0), MsToTime(1.0));
}

}  // namespace
}  // namespace wtpgsched
