#include "wtpg/chain.h"

#include <gtest/gtest.h>

#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

Wtpg MakeChain(const std::vector<double>& w0,
               const std::vector<std::pair<double, double>>& edges) {
  // Nodes 1..n in path order; edges[i] = (wf, wb) between i+1 and i+2.
  Wtpg g;
  for (size_t i = 0; i < w0.size(); ++i) {
    g.AddNode(static_cast<TxnId>(i + 1), w0[i]);
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    g.AddConflictEdge(static_cast<TxnId>(i + 1), static_cast<TxnId>(i + 2),
                      edges[i].first, edges[i].second);
  }
  return g;
}

TEST(ChainFormTest, EmptyAndSingletonAreChains) {
  Wtpg g;
  EXPECT_TRUE(IsChainForm(g));
  g.AddNode(1, 0.0);
  EXPECT_TRUE(IsChainForm(g));
}

TEST(ChainFormTest, PathIsChain) {
  Wtpg g = MakeChain({0, 0, 0, 0}, {{1, 1}, {1, 1}, {1, 1}});
  EXPECT_TRUE(IsChainForm(g));
}

TEST(ChainFormTest, StarIsNotChain) {
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1, 1);
  g.AddConflictEdge(1, 3, 1, 1);
  g.AddConflictEdge(1, 4, 1, 1);  // Degree 3.
  EXPECT_FALSE(IsChainForm(g));
}

TEST(ChainFormTest, TriangleIsNotChain) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1, 1);
  g.AddConflictEdge(2, 3, 1, 1);
  g.AddConflictEdge(1, 3, 1, 1);
  EXPECT_FALSE(IsChainForm(g));
}

TEST(ChainFormTest, MultipleDisjointPaths) {
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4, 5}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1, 1);
  g.AddConflictEdge(3, 4, 1, 1);
  EXPECT_TRUE(IsChainForm(g));  // Two paths plus an isolated node.
}

// The test walks the graph's slots, so freed and recycled slots and
// back-to-back calls (fresh marks each time) must not confuse it.
TEST(ChainFormTest, RecycledSlotsAndRepeatedCalls) {
  Wtpg g = MakeChain({0, 0, 0, 0, 0}, {{1, 1}, {1, 1}, {1, 1}, {1, 1}});
  g.RemoveNode(2);  // Frees a slot; splits the path in two.
  EXPECT_TRUE(IsChainForm(g));
  EXPECT_TRUE(IsChainForm(g));
  // Node 6 takes the freed slot and closes the cycle 3-4-5-6.
  g.AddNode(6, 0.0);
  g.AddConflictEdge(5, 6, 1, 1);
  g.AddConflictEdge(3, 6, 1, 1);
  EXPECT_FALSE(IsChainForm(g));
  EXPECT_FALSE(IsChainForm(g));
  g.RemoveNode(4);
  EXPECT_TRUE(IsChainForm(g));
}

TEST(CanExtendChainTest, NoConflictsAlwaysOk) {
  Wtpg g = MakeChain({0, 0}, {{1, 1}});
  EXPECT_TRUE(CanExtendChain(g, {}));
}

TEST(CanExtendChainTest, AttachToEndpoint) {
  Wtpg g = MakeChain({0, 0, 0}, {{1, 1}, {1, 1}});
  EXPECT_TRUE(CanExtendChain(g, {1}));   // Endpoint.
  EXPECT_TRUE(CanExtendChain(g, {3}));   // Endpoint.
  EXPECT_FALSE(CanExtendChain(g, {2}));  // Mid-chain: degree 2 already.
}

TEST(CanExtendChainTest, JoinTwoChains) {
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4}) g.AddNode(id, 0.0);
  g.AddConflictEdge(1, 2, 1, 1);
  g.AddConflictEdge(3, 4, 1, 1);
  EXPECT_TRUE(CanExtendChain(g, {2, 3}));  // Bridges two paths.
}

TEST(CanExtendChainTest, ClosingCycleRejected) {
  Wtpg g = MakeChain({0, 0, 0}, {{1, 1}, {1, 1}});
  // Conflicting with both endpoints of the same path would close a cycle.
  EXPECT_FALSE(CanExtendChain(g, {1, 3}));
}

TEST(CanExtendChainTest, ThreeConflictsRejected) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 0.0);
  EXPECT_FALSE(CanExtendChain(g, {1, 2, 3}));
}

TEST(CanExtendChainTest, TwoIsolatedNodesOk) {
  Wtpg g;
  g.AddNode(1, 0.0);
  g.AddNode(2, 0.0);
  EXPECT_TRUE(CanExtendChain(g, {1, 2}));
}

TEST(ChainContainingTest, OrderedTraversal) {
  Wtpg g = MakeChain({0, 0, 0, 0}, {{1, 1}, {1, 1}, {1, 1}});
  for (TxnId id : {1, 2, 3, 4}) {
    const std::vector<TxnId> chain = ChainContaining(g, id);
    ASSERT_EQ(chain.size(), 4u);
    // Either 1..4 or 4..1; consecutive nodes must be adjacent.
    EXPECT_TRUE((chain.front() == 1 && chain.back() == 4) ||
                (chain.front() == 4 && chain.back() == 1));
  }
}

TEST(ChainContainingTest, Singleton) {
  Wtpg g;
  g.AddNode(9, 0.0);
  EXPECT_EQ(ChainContaining(g, 9), (std::vector<TxnId>{9}));
}

TEST(OptimizeChainTest, SingleNode) {
  Wtpg g;
  g.AddNode(1, 4.0);
  auto plan = OptimizeChain(g, {1});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->critical_path, 4.0);
  EXPECT_TRUE(plan->forward.empty());
}

TEST(OptimizeChainTest, TwoNodesPicksCheaperDirection) {
  // w(1->2) = 10, w(2->1) = 1; all W0 = 0. Backward wins.
  Wtpg g = MakeChain({0, 0}, {{10, 1}});
  auto plan = OptimizeChain(g, {1, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->critical_path, 1.0);
  EXPECT_FALSE(plan->forward[0]);
  EXPECT_FALSE(plan->Orients(1, 2));
  EXPECT_TRUE(plan->Orients(2, 1));
}

TEST(OptimizeChainTest, W0EntersPathValue) {
  // Forward: W0(1) + wf = 5 + 1 = 6. Backward: W0(2) + wb = 1 + 1 = 2.
  Wtpg g = MakeChain({5, 1}, {{1, 1}});
  auto plan = OptimizeChain(g, {1, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->critical_path, 5.0);  // max(W0(1), 2).
  EXPECT_FALSE(plan->forward[0]);
}

TEST(OptimizeChainTest, RespectsFixedOrientation) {
  Wtpg g = MakeChain({0, 0}, {{10, 1}});
  ASSERT_TRUE(g.TryOrient(1, 2));  // Expensive direction already fixed.
  auto plan = OptimizeChain(g, {1, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->forward[0]);
  EXPECT_DOUBLE_EQ(plan->critical_path, 10.0);
}

TEST(OptimizeChainTest, AlternatingBeatsUniform) {
  // Three nodes; both uniform orientations accumulate both edges into one
  // run (cost 2); orienting outward from the middle gives two runs of 1.
  Wtpg g = MakeChain({0, 0, 0}, {{1, 1}, {1, 1}});
  auto plan = OptimizeChain(g, {1, 2, 3});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->critical_path, 1.0);
  // Valley or peak at node 2: directions must differ.
  EXPECT_NE(plan->forward[0], plan->forward[1]);
}

TEST(OptimizeChainTest, MatchesWtpgCriticalPath) {
  // Applying the plan to the graph must yield exactly the critical path the
  // DP predicted.
  Wtpg g = MakeChain({3, 1, 4, 1}, {{2, 5}, {1, 1}, {7, 2}});
  auto plan = OptimizeChainOf(g, 2);
  ASSERT_TRUE(plan.ok());
  Wtpg applied = g;
  for (size_t i = 0; i + 1 < plan->nodes.size(); ++i) {
    const TxnId a = plan->nodes[i];
    const TxnId b = plan->nodes[i + 1];
    ASSERT_TRUE(plan->forward[i] ? applied.TryOrient(a, b)
                                 : applied.TryOrient(b, a));
  }
  EXPECT_DOUBLE_EQ(applied.CriticalPath(), plan->critical_path);
}

TEST(OptimizeChainTest, MatchesBruteForceSmall) {
  Wtpg g = MakeChain({3, 1, 4, 1, 5}, {{2, 5}, {1, 1}, {7, 2}, {3, 3}});
  auto plan = OptimizeChain(g, {1, 2, 3, 4, 5});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->critical_path,
                   BruteForceOptimalCriticalPath(g, {1, 2, 3, 4, 5}));
}

TEST(OptimizeChainTest, MatchesBruteForceWithFixedEdges) {
  Wtpg g = MakeChain({1, 2, 3, 4}, {{4, 1}, {2, 2}, {1, 6}});
  ASSERT_TRUE(g.TryOrient(2, 3));
  auto plan = OptimizeChain(g, {1, 2, 3, 4});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Orients(2, 3));
  EXPECT_DOUBLE_EQ(plan->critical_path,
                   BruteForceOptimalCriticalPath(g, {1, 2, 3, 4}));
}

TEST(ChainPlanTest, OrientsSymmetry) {
  ChainPlan plan;
  plan.nodes = {5, 9, 2};
  plan.forward = {true, false};
  EXPECT_TRUE(plan.Orients(5, 9));
  EXPECT_FALSE(plan.Orients(9, 5));
  EXPECT_FALSE(plan.Orients(9, 2));
  EXPECT_TRUE(plan.Orients(2, 9));
}

}  // namespace
}  // namespace wtpgsched
