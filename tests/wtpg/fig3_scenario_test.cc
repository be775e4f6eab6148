// The paper's Fig. 3 scenario: a chain T1 - T2 - T3 (T2 conflicts with both
// neighbours) where the globally optimal full serializable order is
// W = {T1 -> T2, T3 -> T2}, making the critical path T0 -> T1 -> T2.

#include <gtest/gtest.h>

#include "wtpg/chain.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

// Weights chosen so that sending T2 *after* both neighbours is optimal:
// T2's remaining work after being unblocked is small, while making T2 go
// first would stack both neighbours' large remaining costs behind it.
Wtpg MakeFig3() {
  Wtpg g;
  g.AddNode(1, 4.0);  // W0(T1).
  g.AddNode(2, 6.0);  // W0(T2).
  g.AddNode(3, 3.0);  // W0(T3).
  // (T1, T2): w(T1->T2) = 2 (T2 cheap once unblocked), w(T2->T1) = 8.
  g.AddConflictEdge(1, 2, 2.0, 8.0);
  // (T2, T3): w(T2->T3) = 7, w(T3->T2) = 2.
  g.AddConflictEdge(2, 3, 7.0, 2.0);
  return g;
}

TEST(Fig3ScenarioTest, OptimalOrderSendsT2Last) {
  const Wtpg g = MakeFig3();
  auto plan = OptimizeChain(g, ChainContaining(g, 2));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Orients(1, 2));
  EXPECT_TRUE(plan->Orients(3, 2));
  // Critical path under W: max over runs = W0(T1) + w(T1->T2) = 6 or
  // W0(T3) + w(T3->T2) = 5, and W0(T2) = 6 alone -> 6.
  EXPECT_DOUBLE_EQ(plan->critical_path, 6.0);
  EXPECT_DOUBLE_EQ(plan->critical_path,
                   BruteForceOptimalCriticalPath(g, ChainContaining(g, 2)));
}

TEST(Fig3ScenarioTest, ConsistentRequestGrantsInconsistentDelays) {
  // A grant by T1 (determining T1 -> T2) keeps the optimum; a grant by T2
  // against T1 (T2 -> T1) worsens it and must be refused by GOW's test.
  Wtpg g = MakeFig3();
  const std::vector<TxnId> chain = ChainContaining(g, 2);
  const double base = OptimizeChain(g, chain)->critical_path;

  Wtpg t1_first = g;
  ASSERT_TRUE(t1_first.OrientNoRollback(1, 2));
  EXPECT_DOUBLE_EQ(OptimizeChain(t1_first, ChainContaining(t1_first, 2))
                       ->critical_path,
                   base);

  Wtpg t2_first = g;
  ASSERT_TRUE(t2_first.OrientNoRollback(2, 1));
  EXPECT_GT(OptimizeChain(t2_first, ChainContaining(t2_first, 2))
                ->critical_path,
            base);
}

TEST(Fig3ScenarioTest, AfterT1GrantRestStaysOptimal) {
  // Once T1 -> T2 is fixed, the optimizer must still pick T3 -> T2 for the
  // remaining conflict edge.
  Wtpg g = MakeFig3();
  ASSERT_TRUE(g.OrientNoRollback(1, 2));
  auto plan = OptimizeChain(g, ChainContaining(g, 2));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Orients(3, 2));
  EXPECT_DOUBLE_EQ(plan->critical_path, 6.0);
}

}  // namespace
}  // namespace wtpgsched
