// Differential testing of the decision fast paths — the probe-cached
// WouldCycle and the incremental-closure OrientBatch — against the naive
// oracle (reference_wtpg.h): random conflict graphs driven through random
// orientation / probe / speculation / mutation sequences must produce
// identical verdicts and identical observable graphs at every step, and
// every rolled-back or failed batch must leave the production graph's
// adjacency lists exactly as a copy taken before it.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

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

// Unoriented-neighbor subset of u — the target lists the schedulers pass
// on a grant (pending conflicters share an unoriented conflict edge).
std::vector<TxnId> RandomTargets(Rng* rng, const Wtpg& g, TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId nb : g.Neighbors(u)) {
    const Wtpg::Edge* e = g.FindEdge(u, nb);
    if (!e->oriented && rng->NextDouble() < 0.7) targets.push_back(nb);
  }
  return targets;
}

// Any-neighbor subset of u, oriented either way: batches that fail.
std::vector<TxnId> RandomNeighborTargets(Rng* rng, const Wtpg& g, TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId nb : g.Neighbors(u)) {
    if (rng->NextDouble() < 0.5) targets.push_back(nb);
  }
  return targets;
}

// Arbitrary competitors other than u: C2PL probes and sparse batches name
// transactions with no edge to u yet.
std::vector<TxnId> RandomNodeTargets(Rng* rng, const std::vector<TxnId>& nodes,
                                     TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId v : nodes) {
    if (v != u && rng->NextDouble() < 0.5) targets.push_back(v);
  }
  return targets;
}

TxnId Pick(Rng* rng, const std::vector<TxnId>& ids) {
  return ids[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int>(ids.size()) - 1))];
}

TEST(DecisionReferenceTest, RandomSequencesMatchReference) {
  // Acceptance floor: >= 1000 randomized sequences.
  constexpr int kSequences = 1000;
  constexpr int kOpsPerSequence = 24;
  Rng rng(20260809);
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
      switch (rng.UniformInt(0, 10)) {
        case 0:
        case 1: {  // WouldCycle probe (C2PL's deadlock prediction).
          const std::vector<TxnId> targets =
              RandomNodeTargets(&rng, nodes, u);
          ASSERT_EQ(graph.WouldCycle(u, targets),
                    oracle.WouldCycle(u, targets));
          // Immediately repeated probe: the fast path answers the second
          // one from the per-slot reverse-reachability cache.
          ASSERT_EQ(graph.WouldCycle(u, targets),
                    oracle.WouldCycle(u, targets));
          unchanged = true;
          break;
        }
        case 2:
        case 3: {  // OrientBatch, committed (the grant path).
          const std::vector<TxnId> targets = RandomTargets(&rng, graph, u);
          ASSERT_EQ(graph.OrientBatchNoRollback(u, targets),
                    oracle.OrientBatch(u, targets, /*keep=*/true));
          break;
        }
        case 4: {  // OrientBatch kept on success, rolled back on failure.
          const std::vector<TxnId> targets =
              RandomNeighborTargets(&rng, graph, u);
          Wtpg::OrientJournal journal;
          const bool ok = graph.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, oracle.OrientBatch(u, targets, /*keep=*/true));
          unchanged = !ok;
          break;
        }
        case 5: {  // OrientBatch speculated and rolled back (GOW's probe).
          const std::vector<TxnId> targets =
              RandomNeighborTargets(&rng, graph, u);
          Wtpg::OrientJournal journal;
          const bool ok = graph.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, oracle.OrientBatch(u, targets, /*keep=*/false));
          if (ok) graph.Rollback(&journal);
          unchanged = true;
          break;
        }
        case 6: {  // EvaluateGrant (LOW's E()).
          const std::vector<TxnId> targets = RandomTargets(&rng, graph, u);
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
        case 7: {  // SetRemaining.
          const double remaining = rng.UniformReal(0.0, 10.0);
          graph.SetRemaining(u, remaining);
          oracle.SetRemaining(u, remaining);
          break;
        }
        case 8:
        case 9: {  // Commit: remove the node.
          if (graph.num_nodes() <= 2) break;
          graph.RemoveNode(u);
          oracle.RemoveNode(u);
          break;
        }
        case 10: {  // Arrival: new node conflicting with a random subset.
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

// Sparse precedence mode (C2PL's production configuration): no conflict
// edges are pre-materialized and the forced closure is skipped; edges
// appear on demand at orientation time. Production and oracle must agree
// on every verdict AND on exactly which edges got materialized, including
// by *failing* batches, which materialize the passing prefix of targets
// before bailing out.
TEST(DecisionReferenceTest, SparseRandomSequencesMatchReference) {
  constexpr int kSequences = 400;
  constexpr int kOpsPerSequence = 24;
  Rng rng(19910810);
  for (int seq = 0; seq < kSequences; ++seq) {
    Wtpg graph;
    ReferenceWtpg oracle;
    graph.SetSparsePrecedence();
    oracle.SetSparsePrecedence();
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 1; i <= n; ++i) {
      const double remaining = rng.UniformReal(0.0, 10.0);
      graph.AddNode(i, remaining);
      oracle.AddNode(i, remaining);
    }
    TxnId next_id = n + 1;
    for (int op = 0; op < kOpsPerSequence; ++op) {
      SCOPED_TRACE(testing::Message() << "seq " << seq << " op " << op);
      const std::vector<TxnId> nodes = graph.Nodes();
      if (nodes.empty()) break;
      const TxnId u = Pick(&rng, nodes);
      const Wtpg before = graph;
      // Set by operations that must leave the orientations as they were
      // (on-demand edges may stay behind, unoriented).
      bool unchanged = false;
      switch (rng.UniformInt(0, 7)) {
        case 0:
        case 1: {  // WouldCycle over arbitrary competitors, probed twice.
          const std::vector<TxnId> targets =
              RandomNodeTargets(&rng, nodes, u);
          ASSERT_EQ(graph.WouldCycle(u, targets),
                    oracle.WouldCycle(u, targets));
          ASSERT_EQ(graph.WouldCycle(u, targets),
                    oracle.WouldCycle(u, targets));
          unchanged = true;
          break;
        }
        case 2:
        case 3: {  // Orientation kept on success; a failing batch rolls
                   // back its marks but keeps the materialized prefix.
          const std::vector<TxnId> targets =
              RandomNodeTargets(&rng, nodes, u);
          Wtpg::OrientJournal journal;
          const bool ok = graph.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, oracle.OrientBatch(u, targets, /*keep=*/true));
          unchanged = !ok;
          break;
        }
        case 4: {  // Speculated orientation, rolled back on success.
          const std::vector<TxnId> targets =
              RandomNodeTargets(&rng, nodes, u);
          Wtpg::OrientJournal journal;
          const bool ok = graph.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, oracle.OrientBatch(u, targets, /*keep=*/false));
          if (ok) graph.Rollback(&journal);
          unchanged = true;
          break;
        }
        case 5: {  // The removal-compensation primitive. Callers only
                   // force-orient pairs the dense closure would have
                   // oriented, so the target must not reach the source.
          const TxnId v = Pick(&rng, nodes);
          if (v == u || graph.HasPath(v, u)) break;
          graph.ForceOrientSparse(u, v);
          oracle.ForceOrientSparse(u, v);
          break;
        }
        case 6: {  // Commit/abort: remove the node.
          if (graph.num_nodes() <= 2) break;
          graph.RemoveNode(u);
          oracle.RemoveNode(u);
          break;
        }
        case 7: {  // Arrival: sparse admission materializes nothing.
          const double remaining = rng.UniformReal(0.0, 10.0);
          graph.AddNode(next_id, remaining);
          oracle.AddNode(next_id, remaining);
          ++next_id;
          break;
        }
      }
      ASSERT_EQ(oracle.Diff(graph), "");
      if (unchanged) {
        ASSERT_EQ(RollbackDiff(before, graph, /*neighbors_may_grow=*/true),
                  "");
      }
      ASSERT_DOUBLE_EQ(graph.CriticalPath(), oracle.CriticalPath());
      ASSERT_TRUE(graph.CheckInvariants());
    }
  }
}

}  // namespace
}  // namespace wtpgsched
