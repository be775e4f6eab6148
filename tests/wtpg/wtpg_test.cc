#include "wtpg/wtpg.h"

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(WtpgTest, EmptyGraph) {
  Wtpg g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 0.0);
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, AddRemoveNodes) {
  Wtpg g;
  g.AddNode(1, 5.0);
  g.AddNode(2, 3.0);
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_DOUBLE_EQ(g.remaining(1), 5.0);
  g.RemoveNode(1);
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_TRUE(g.HasNode(2));
}

TEST(WtpgTest, ConflictEdgeStoresBothWeights) {
  Wtpg g;
  g.AddNode(1, 5.0);
  g.AddNode(2, 3.0);
  g.AddConflictEdge(1, 2, 2.0, 5.0);
  const Wtpg::Edge* e = g.FindEdge(1, 2);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->oriented);
  EXPECT_DOUBLE_EQ(e->weight_ab, 2.0);  // w(1 -> 2).
  EXPECT_DOUBLE_EQ(e->weight_ba, 5.0);  // w(2 -> 1).
  EXPECT_EQ(g.FindEdge(2, 1), e);       // Symmetric lookup.
}

TEST(WtpgTest, EdgeWeightsNormalizedRegardlessOfArgumentOrder) {
  Wtpg g;
  g.AddNode(7, 0.0);
  g.AddNode(3, 0.0);
  // Passed with a=7 > b=3; weight_ab must still mean w(7 -> 3).
  g.AddConflictEdge(7, 3, 2.5, 4.5);
  const Wtpg::Edge* e = g.FindEdge(3, 7);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->a, 3);
  EXPECT_DOUBLE_EQ(e->weight_ab, 4.5);  // w(3 -> 7).
  EXPECT_DOUBLE_EQ(e->weight_ba, 2.5);  // w(7 -> 3).
}

TEST(WtpgTest, TryOrientBasic) {
  Wtpg g;
  g.AddNode(1, 0.0);
  g.AddNode(2, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  EXPECT_TRUE(g.TryOrient(1, 2));
  EXPECT_TRUE(g.IsOriented(1, 2));
  EXPECT_FALSE(g.IsOriented(2, 1));
  // Re-orienting the same way is a no-op; reversing fails.
  EXPECT_TRUE(g.TryOrient(1, 2));
  EXPECT_FALSE(g.TryOrient(2, 1));
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, OrientRejectsTwoCycle) {
  Wtpg g;
  g.AddNode(1, 0.0);
  g.AddNode(2, 0.0);
  g.AddNode(3, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  ASSERT_TRUE(g.TryOrient(1, 2));
  ASSERT_TRUE(g.TryOrient(2, 3));
  // 1 ~> 3 exists, so the closure already forced 1 -> 3.
  EXPECT_TRUE(g.IsOriented(1, 3));
  EXPECT_FALSE(g.TryOrient(3, 1));
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, ForcedTransitiveClosure) {
  // The LOW example of Fig. 6: orienting T5 -> T6 creates the path
  // T4 -> T5 -> T6 -> T7, which forces the conflict edge (T4, T7) into
  // T4 -> T7.
  Wtpg g;
  for (TxnId id : {4, 5, 6, 7}) g.AddNode(id, 0.0);
  g.AddConflictEdge(4, 5, 1.0, 1.0);
  g.AddConflictEdge(5, 6, 2.0, 2.0);
  g.AddConflictEdge(6, 7, 0.5, 0.5);
  g.AddConflictEdge(4, 7, 10.0, 10.0);
  ASSERT_TRUE(g.TryOrient(4, 5));
  ASSERT_TRUE(g.TryOrient(6, 7));
  EXPECT_FALSE(g.IsOriented(4, 7));
  ASSERT_TRUE(g.TryOrient(5, 6));
  EXPECT_TRUE(g.IsOriented(4, 7)) << "closure must force T4 -> T7";
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, HasPathFollowsOrientedEdgesOnly) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  EXPECT_FALSE(g.HasPath(1, 3));
  g.TryOrient(1, 2);
  EXPECT_TRUE(g.HasPath(1, 2));
  EXPECT_FALSE(g.HasPath(1, 3));
  g.TryOrient(2, 3);
  EXPECT_TRUE(g.HasPath(1, 3));
  EXPECT_FALSE(g.HasPath(3, 1));
  EXPECT_TRUE(g.HasPath(2, 2));  // Trivial path.
}

TEST(WtpgTest, CriticalPathSingleNode) {
  Wtpg g;
  g.AddNode(1, 5.0);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 5.0);  // T0 -> T1 weight alone.
}

TEST(WtpgTest, CriticalPathChain) {
  // T0 -> 1 (w0 = 5) -> 2 (edge 2.0): longest is 5 + 2 = 7.
  Wtpg g;
  g.AddNode(1, 5.0);
  g.AddNode(2, 3.0);
  g.AddConflictEdge(1, 2, 2.0, 9.0);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 5.0);  // Unoriented edges ignored.
  g.TryOrient(1, 2);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 7.0);
}

TEST(WtpgTest, CriticalPathUsesDirectionalWeight) {
  Wtpg g;
  g.AddNode(1, 0.0);
  g.AddNode(2, 0.0);
  g.AddConflictEdge(1, 2, 2.0, 9.0);
  g.TryOrient(2, 1);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 9.0);  // w(2 -> 1) = 9.
}

TEST(WtpgTest, CriticalPathPicksLongest) {
  Wtpg g;
  g.AddNode(1, 1.0);
  g.AddNode(2, 6.0);
  g.AddNode(3, 0.0);
  g.AddConflictEdge(1, 3, 2.0, 0.0);
  g.AddConflictEdge(2, 3, 1.0, 0.0);
  g.TryOrient(1, 3);
  g.TryOrient(2, 3);
  // Paths to 3: 1+2=3 via T1, 6+1=7 via T2; and node T2 alone = 6.
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 7.0);
}

TEST(WtpgTest, SetRemainingUpdatesCriticalPath) {
  Wtpg g;
  g.AddNode(1, 5.0);
  g.SetRemaining(1, 2.5);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 2.5);
}

TEST(WtpgTest, RemoveNodeDropsEdges) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 1.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.TryOrient(1, 2);
  g.RemoveNode(2);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.Neighbors(1).size(), 0u);
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, WouldCycleDetectsReverseReachability) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  g.TryOrient(1, 2);
  g.TryOrient(2, 3);
  EXPECT_TRUE(g.WouldCycle(3, {1}));
  EXPECT_FALSE(g.WouldCycle(1, {3}));
  EXPECT_FALSE(g.WouldCycle(1, {}));
}

TEST(WtpgTest, OrientBatchOrientsAllTargets) {
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 4, 1.0, 1.0);
  EXPECT_TRUE(g.OrientBatchNoRollback(1, {2, 3, 4}));
  EXPECT_TRUE(g.IsOriented(1, 2));
  EXPECT_TRUE(g.IsOriented(1, 3));
  EXPECT_TRUE(g.IsOriented(1, 4));
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(WtpgTest, OrientBatchFailsOnCycle) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  g.TryOrient(2, 3);
  g.TryOrient(3, 1);  // Forces 2 -> 1 as well.
  EXPECT_TRUE(g.IsOriented(2, 1));
  EXPECT_FALSE(g.OrientBatchNoRollback(1, {2}));
}

TEST(WtpgTest, TryOrientRollsBackOnFailure) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  g.TryOrient(1, 2);
  g.TryOrient(2, 3);  // Closure forces 1 -> 3.
  Wtpg before = g;
  EXPECT_FALSE(g.TryOrient(3, 1));
  // Graph unchanged on failure.
  EXPECT_EQ(g.UnorientedEdges(), before.UnorientedEdges());
  EXPECT_TRUE(g.CheckInvariants());
}

// Paper Fig. 2: T1 = r1(A:1) -> r1(B:3) -> w1(A:1),
//               T2 = r2(C:1) -> w2(A:1) -> w2(C:1), both just started.
// Weights: w(T1->T2) = 2, w(T2->T1) = 5, W0(T1) = 5, W0(T2) = 3.
TEST(WtpgTest, PaperFig2Example) {
  Wtpg g;
  g.AddNode(1, 5.0);
  g.AddNode(2, 3.0);
  g.AddConflictEdge(1, 2, 2.0, 5.0);
  // Granting T1's first lock on A determines T1 -> T2.
  ASSERT_TRUE(g.TryOrient(1, 2));
  // Critical path: T0 -> T1 -> T2 -> Tf = 5 + 2 = 7.
  EXPECT_DOUBLE_EQ(g.CriticalPath(), 7.0);
}

// Paper Fig. 6 (LOW): E(q) vs E(p) when T5 requests a lock conflicting with
// T6's declaration. Edges as in Fig. 6-(a): T4 -> T5 (1), (T5, T6) with
// w(T5->T6) = 2 / w(T6->T5) = 1, T6 -> T7 (0.5), conflict (T4, T7) with
// weight 10 each way; all T0-weights 0 as in the figure.
TEST(WtpgTest, PaperFig6EvaluateGrant) {
  Wtpg g;
  for (TxnId id : {4, 5, 6, 7}) g.AddNode(id, 0.0);
  g.AddConflictEdge(4, 5, 1.0, 1.0);
  g.AddConflictEdge(5, 6, 2.0, 1.0);
  g.AddConflictEdge(6, 7, 0.5, 0.5);
  g.AddConflictEdge(4, 7, 10.0, 10.0);
  ASSERT_TRUE(g.TryOrient(4, 5));
  ASSERT_TRUE(g.TryOrient(6, 7));

  // E(q): grant to T5 (orients T5 -> T6); closure forces T4 -> T7, and the
  // critical path becomes the T4 -> T7 edge of length 10.
  EXPECT_DOUBLE_EQ(EvaluateGrant(g, 5, {6}), 10.0);
  // E(p): grant to T6 (orients T6 -> T5); (T4, T7) stays unoriented and is
  // ignored; the longest oriented path is length 1.
  EXPECT_DOUBLE_EQ(EvaluateGrant(g, 6, {5}), 1.0);
  // LOW Phase3 would delay q because E(q) > E(p).
}

TEST(WtpgTest, EvaluateGrantDetectsDeadlock) {
  Wtpg g;
  g.AddNode(1, 0.0);
  g.AddNode(2, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.TryOrient(2, 1);
  EXPECT_EQ(EvaluateGrant(g, 1, {2}), kInfiniteCost);
}

TEST(WtpgTest, EvaluateGrantDoesNotMutate) {
  Wtpg g;
  g.AddNode(1, 1.0);
  g.AddNode(2, 2.0);
  g.AddConflictEdge(1, 2, 3.0, 4.0);
  EvaluateGrant(g, 1, {2});
  EXPECT_FALSE(g.FindEdge(1, 2)->oriented);
}

TEST(WtpgTest, CopySemantics) {
  Wtpg g;
  g.AddNode(1, 1.0);
  g.AddNode(2, 2.0);
  g.AddConflictEdge(1, 2, 3.0, 4.0);
  Wtpg copy = g;
  copy.TryOrient(1, 2);
  copy.SetRemaining(1, 9.0);
  EXPECT_FALSE(g.FindEdge(1, 2)->oriented);
  EXPECT_DOUBLE_EQ(g.remaining(1), 1.0);
  EXPECT_TRUE(copy.IsOriented(1, 2));
}

TEST(WtpgTest, NeighborsAndUnorientedEdges) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 1.0, 1.0);
  EXPECT_EQ(g.Neighbors(1).size(), 2u);
  EXPECT_EQ(g.UnorientedEdges().size(), 2u);
  g.TryOrient(1, 2);
  EXPECT_EQ(g.UnorientedEdges().size(), 1u);
  EXPECT_EQ(g.Neighbors(1).size(), 2u);  // Orientation keeps adjacency.
}

// One hub in the highest slot conflicting with ~1,000 lower slots: the
// edge keys differ only in their high halves. A bucket index taken from the
// low bits of the hash product puts every such key on one home bucket and
// turns each probe into a walk over the whole cluster.
TEST(WtpgTest, HubEdgesSpreadOverTheEdgeTable) {
  constexpr TxnId kLeaves = 1000;
  Wtpg g;
  for (TxnId id = 1; id <= kLeaves + 1; ++id) g.AddNode(id, 1.0);
  const TxnId hub = kLeaves + 1;
  for (TxnId leaf = 1; leaf <= kLeaves; ++leaf) {
    g.AddConflictEdge(leaf, hub, 1.0, 1.0);
  }
  EXPECT_LE(g.LongestEdgeProbe(), 16u);
  // Erase and re-insert a third of the edges through node churn.
  for (TxnId leaf = 1; leaf <= kLeaves; leaf += 3) {
    g.RemoveNode(leaf);
    g.AddNode(leaf, 1.0);
    g.AddConflictEdge(leaf, hub, 1.0, 1.0);
  }
  EXPECT_LE(g.LongestEdgeProbe(), 16u);
  EXPECT_EQ(g.num_edges(), static_cast<size_t>(kLeaves));
  for (TxnId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_NE(g.FindEdge(hub, leaf), nullptr) << leaf;
  }
  EXPECT_TRUE(g.CheckInvariants());
}

}  // namespace
}  // namespace wtpgsched
