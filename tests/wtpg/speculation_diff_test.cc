// Differential testing of the journal-based in-place speculation against
// the naive clone-and-discard oracle (reference_wtpg.h): random conflict
// graphs driven through random orientation / evaluation / mutation
// sequences must produce identical decisions and identical observable
// graphs at every step, and every speculation — and every failed
// orientation — must leave the production graph byte-identical to a copy
// taken before it, adjacency-list order included.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

// Builds the same random conflict graph into both implementations.
void BuildRandomPair(Rng* rng, int n, double edge_prob, Wtpg* graph,
                     ReferenceWtpg* oracle) {
  for (int i = 1; i <= n; ++i) {
    const double remaining = rng->UniformReal(0.0, 10.0);
    graph->AddNode(i, remaining);
    oracle->AddNode(i, remaining);
  }
  for (int a = 1; a <= n; ++a) {
    for (int b = a + 1; b <= n; ++b) {
      if (rng->NextDouble() >= edge_prob) continue;
      const double wab = rng->UniformReal(0.0, 10.0);
      const double wba = rng->UniformReal(0.0, 10.0);
      graph->AddConflictEdge(a, b, wab, wba);
      oracle->AddConflictEdge(a, b, wab, wba);
    }
  }
}

TxnId Pick(Rng* rng, const std::vector<TxnId>& ids) {
  return ids[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int>(ids.size()) - 1))];
}

TEST(SpeculationDiffTest, RandomSequencesMatchReference) {
  // Acceptance floor: >= 1000 randomized sequences.
  constexpr int kSequences = 1000;
  constexpr int kOpsPerSequence = 24;
  Rng rng(20260806);
  for (int seq = 0; seq < kSequences; ++seq) {
    Wtpg graph;
    ReferenceWtpg oracle;
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    BuildRandomPair(&rng, n, /*edge_prob=*/0.45, &graph, &oracle);
    TxnId next_id = n + 1;
    for (int op = 0; op < kOpsPerSequence; ++op) {
      SCOPED_TRACE(testing::Message() << "seq " << seq << " op " << op);
      const std::vector<TxnId> nodes = graph.Nodes();
      if (nodes.empty()) break;
      const TxnId u = Pick(&rng, nodes);
      const Wtpg before = graph;
      // Set by operations that must leave the graph as it was.
      bool unchanged = false;
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2: {  // TryOrient on a random incident edge.
          const std::vector<TxnId> nbs = graph.Neighbors(u);
          if (nbs.empty()) break;
          const TxnId v = Pick(&rng, nbs);
          const bool flip = rng.NextDouble() < 0.5;
          const TxnId from = flip ? v : u;
          const TxnId to = flip ? u : v;
          const bool ok = graph.TryOrient(from, to);
          ASSERT_EQ(ok, oracle.TryOrient(from, to));
          unchanged = !ok;
          break;
        }
        case 3:
        case 4: {  // CanOrient (must not mutate either graph).
          const std::vector<TxnId> nbs = graph.Neighbors(u);
          if (nbs.empty()) break;
          const TxnId v = Pick(&rng, nbs);
          ASSERT_EQ(CanOrient(graph, u, v), oracle.CanOrient(u, v));
          unchanged = true;
          break;
        }
        case 5:
        case 6: {  // EvaluateGrant against most unoriented neighbors.
          std::vector<TxnId> targets;
          for (TxnId nb : graph.Neighbors(u)) {
            const Wtpg::Edge* e = graph.FindEdge(u, nb);
            if (!e->oriented && rng.NextDouble() < 0.8) {
              targets.push_back(nb);
            }
          }
          const double eg = EvaluateGrant(graph, u, targets);
          const double er = oracle.EvaluateGrant(u, targets);
          if (std::isinf(eg) || std::isinf(er)) {
            ASSERT_EQ(std::isinf(eg), std::isinf(er));
          } else {
            ASSERT_DOUBLE_EQ(eg, er);
          }
          unchanged = true;
          break;
        }
        case 7: {  // SetRemaining (invalidates memoized distances).
          const double remaining = rng.UniformReal(0.0, 10.0);
          graph.SetRemaining(u, remaining);
          oracle.SetRemaining(u, remaining);
          break;
        }
        case 8: {  // Commit: remove the node.
          if (graph.num_nodes() <= 2) break;
          graph.RemoveNode(u);
          oracle.RemoveNode(u);
          break;
        }
        case 9: {  // Arrival: new node conflicting with a random subset.
          const double remaining = rng.UniformReal(0.0, 10.0);
          graph.AddNode(next_id, remaining);
          oracle.AddNode(next_id, remaining);
          for (TxnId other : nodes) {
            if (rng.NextDouble() >= 0.3) continue;
            const double wab = rng.UniformReal(0.0, 10.0);
            const double wba = rng.UniformReal(0.0, 10.0);
            graph.AddConflictEdge(next_id, other, wab, wba);
            oracle.AddConflictEdge(next_id, other, wab, wba);
          }
          ++next_id;
          break;
        }
      }
      ASSERT_EQ(oracle.Diff(graph), "");
      if (unchanged) {
        ASSERT_EQ(RollbackDiff(before, graph), "");
      }
      ASSERT_DOUBLE_EQ(graph.CriticalPath(), oracle.CriticalPath());
      ASSERT_TRUE(graph.CheckInvariants());
    }
  }
}

TEST(SpeculationDiffTest, FailedOrientBatchRollsBackByteIdentical) {
  // Closure-failure regression: 1 -> 2 -> 3 is fixed, so a batch from 3
  // that also targets 4 marks 3 -> 4 before the closure discovers the
  // 3 -> 1 cycle. The rollback must undo the partial marks exactly.
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4}) g.AddNode(id, 1.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 2.0, 2.0);
  g.AddConflictEdge(3, 4, 3.0, 3.0);
  ASSERT_TRUE(g.TryOrient(1, 2));
  ASSERT_TRUE(g.TryOrient(2, 3));  // Closure forces 1 -> 3.
  ASSERT_TRUE(g.IsOriented(1, 3));
  // Warm the memoized distances so rollback must also restore them.
  const double critical_before = g.CriticalPath();
  const Wtpg snapshot = g;

  Wtpg::OrientJournal journal;
  EXPECT_FALSE(g.OrientBatch(3, {4, 1}, &journal));
  EXPECT_TRUE(journal.empty()) << "failed batch must clean its journal";
  EXPECT_EQ(RollbackDiff(snapshot, g), "");
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());

  // And a successful batch explicitly rolled back restores it too.
  EXPECT_TRUE(g.OrientBatch(3, {4}, &journal));
  EXPECT_TRUE(g.IsOriented(3, 4));
  EXPECT_GT(journal.size(), 0u);
  g.Rollback(&journal);
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(RollbackDiff(snapshot, g), "");
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(SpeculationDiffTest, EvaluateGrantLeavesGraphUntouched) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 2.0);
  g.AddConflictEdge(1, 2, 1.0, 4.0);
  g.AddConflictEdge(2, 3, 2.0, 5.0);
  const double critical_before = g.CriticalPath();
  const Wtpg snapshot = g;
  // Orients 2 -> 1 (weight w(2->1) = 4) and 2 -> 3 (weight 2): the longest
  // path is T0 -> 2 -> 1 = 2 + 4.
  EXPECT_DOUBLE_EQ(EvaluateGrant(g, 2, {1, 3}), 6.0);
  EXPECT_EQ(RollbackDiff(snapshot, g), "");
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());
}

}  // namespace
}  // namespace wtpgsched
