// Differential testing of the decision fast paths — the reachability probe
// and the incremental-closure OrientBatch — against the naive oracle
// (reference_wtpg.h): random conflict graphs driven through random
// orientation / probe / speculation / mutation sequences must produce
// identical verdicts and identical observable graphs at every step, and
// every rolled-back or failed batch must leave the production graph's
// adjacency lists exactly as a copy taken before it.

#include <algorithm>
#include <cmath>
#include <string>
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

// Arbitrary competitors other than u: a reachability probe may name
// transactions with no edge to u.
std::vector<TxnId> RandomNodeTargets(Rng* rng, const std::vector<TxnId>& nodes,
                                     TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId v : nodes) {
    if (v != u && rng->NextDouble() < 0.5) targets.push_back(v);
  }
  return targets;
}

// Empty when HasPath(v, u) agrees with the oracle for every node v, and
// when the verdict for a grant orienting u -> t for every target ("some
// target reaches u") matches the oracle's WouldCycle; else the first
// difference.
std::string ReachDiff(const Wtpg& graph, const ReferenceWtpg& oracle,
                      const std::vector<TxnId>& nodes, TxnId u,
                      const std::vector<TxnId>& targets) {
  for (TxnId v : nodes) {
    if (v != u && graph.HasPath(v, u) != oracle.HasPath(v, u)) {
      return "HasPath differs from the oracle";
    }
  }
  const bool cycle =
      std::any_of(targets.begin(), targets.end(),
                  [&](TxnId t) { return graph.HasPath(t, u); });
  if (cycle != oracle.WouldCycle(u, targets)) {
    return "reachability verdict differs from the oracle's WouldCycle";
  }
  return "";
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
        case 1: {  // Reachability probe (a grant's cycle test).
          const std::vector<TxnId> targets =
              RandomNodeTargets(&rng, nodes, u);
          ASSERT_EQ(ReachDiff(graph, oracle, nodes, u, targets), "");
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

}  // namespace
}  // namespace wtpgsched
