// Property test: the O(m^2) chain DP must match exhaustive enumeration of
// all feasible orientations on randomized chains (weights, T0 weights, and
// randomly pre-oriented edges).

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/chain.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

struct ChainCase {
  int num_nodes;
  uint64_t seed;
  double fixed_edge_prob;
};

class ChainDpPropertyTest : public testing::TestWithParam<ChainCase> {};

TEST_P(ChainDpPropertyTest, DpMatchesBruteForce) {
  const ChainCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 40; ++trial) {
    Wtpg g;
    std::vector<TxnId> chain;
    for (int i = 1; i <= param.num_nodes; ++i) {
      g.AddNode(i, rng.UniformReal(0.0, 8.0));
      chain.push_back(i);
    }
    for (int i = 1; i < param.num_nodes; ++i) {
      g.AddConflictEdge(i, i + 1, rng.UniformReal(0.0, 10.0),
                        rng.UniformReal(0.0, 10.0));
    }
    // Randomly pre-orient some edges (as real grants would have).
    for (int i = 1; i < param.num_nodes; ++i) {
      if (rng.NextDouble() < param.fixed_edge_prob) {
        const bool forward = rng.NextDouble() < 0.5;
        ASSERT_TRUE(forward ? g.TryOrient(i, i + 1) : g.TryOrient(i + 1, i));
      }
    }
    auto plan = OptimizeChain(g, chain);
    ASSERT_TRUE(plan.ok());
    const double brute = BruteForceOptimalCriticalPath(g, chain);
    EXPECT_NEAR(plan->critical_path, brute, 1e-9)
        << "trial " << trial << " nodes " << param.num_nodes;

    // The plan itself must be feasible and achieve its claimed value.
    Wtpg applied = g;
    for (size_t e = 0; e + 1 < plan->nodes.size(); ++e) {
      const TxnId a = plan->nodes[e];
      const TxnId b = plan->nodes[e + 1];
      ASSERT_TRUE(plan->forward[e] ? applied.TryOrient(a, b)
                                   : applied.TryOrient(b, a));
    }
    EXPECT_NEAR(applied.CriticalPath(), plan->critical_path, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChainDpPropertyTest,
    testing::Values(ChainCase{2, 101, 0.0}, ChainCase{3, 102, 0.0},
                    ChainCase{4, 103, 0.0}, ChainCase{5, 104, 0.0},
                    ChainCase{6, 105, 0.0}, ChainCase{8, 106, 0.0},
                    ChainCase{3, 201, 0.4}, ChainCase{5, 202, 0.4},
                    ChainCase{8, 203, 0.4}, ChainCase{10, 204, 0.25},
                    ChainCase{12, 205, 0.15}),
    [](const testing::TestParamInfo<ChainCase>& info) {
      return "n" + std::to_string(info.param.num_nodes) + "_seed" +
             std::to_string(info.param.seed);
    });

// Orientation closure on random (non-chain) graphs must keep invariants and
// never produce cycles.
struct ClosureCase {
  int num_nodes;
  double edge_prob;
  uint64_t seed;
};

class ClosurePropertyTest : public testing::TestWithParam<ClosureCase> {};

TEST_P(ClosurePropertyTest, RandomOrientationsKeepInvariants) {
  const ClosureCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 20; ++trial) {
    Wtpg g;
    for (int i = 1; i <= param.num_nodes; ++i) {
      g.AddNode(i, rng.UniformReal(0.0, 5.0));
    }
    std::vector<std::pair<TxnId, TxnId>> pairs;
    for (int a = 1; a <= param.num_nodes; ++a) {
      for (int b = a + 1; b <= param.num_nodes; ++b) {
        if (rng.NextDouble() < param.edge_prob) {
          g.AddConflictEdge(a, b, rng.UniformReal(0.0, 5.0),
                            rng.UniformReal(0.0, 5.0));
          pairs.emplace_back(a, b);
        }
      }
    }
    // Try random orientations; successes must keep all invariants.
    for (int k = 0; k < 3 * static_cast<int>(pairs.size()); ++k) {
      if (pairs.empty()) break;
      const auto& [a, b] =
          pairs[static_cast<size_t>(rng.UniformInt(0, pairs.size() - 1))];
      const bool forward = rng.NextDouble() < 0.5;
      const TxnId from = forward ? a : b;
      const TxnId to = forward ? b : a;
      const bool can = CanOrient(g, from, to);
      const bool did = g.TryOrient(from, to);
      EXPECT_EQ(can, did);
      ASSERT_TRUE(g.CheckInvariants())
          << "invariants broken after orienting T" << from << "->T" << to;
    }
    // The critical path must be finite and >= the largest T0 weight.
    double max_w0 = 0.0;
    for (TxnId id : g.Nodes()) max_w0 = std::max(max_w0, g.remaining(id));
    EXPECT_GE(g.CriticalPath(), max_w0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosurePropertyTest,
    testing::Values(ClosureCase{4, 0.5, 301}, ClosureCase{6, 0.4, 302},
                    ClosureCase{8, 0.3, 303}, ClosureCase{10, 0.25, 304},
                    ClosureCase{14, 0.2, 305}),
    [](const testing::TestParamInfo<ClosureCase>& info) {
      return "n" + std::to_string(info.param.num_nodes) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace wtpgsched
