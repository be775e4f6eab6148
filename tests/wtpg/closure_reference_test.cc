// Equivalence of the incremental forced closure against the oracle's naive
// fixpoint closure (reference_wtpg.h): after every orientation attempt on a
// random conflict graph, both must agree on the verdict and on the
// orientation of every edge — a closure that misses a forced edge, or
// forces one too many, shows as a difference.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

struct RefCase {
  int nodes;
  double edge_prob;
  uint64_t seed;
};

class ClosureReferenceTest : public testing::TestWithParam<RefCase> {};

TEST_P(ClosureReferenceTest, WorklistClosureIsAFixpoint) {
  const RefCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 30; ++trial) {
    Wtpg g;
    ReferenceWtpg oracle;
    for (int i = 1; i <= param.nodes; ++i) {
      g.AddNode(i, 0.0);
      oracle.AddNode(i, 0.0);
    }
    std::vector<std::pair<TxnId, TxnId>> pairs;
    for (int a = 1; a <= param.nodes; ++a) {
      for (int b = a + 1; b <= param.nodes; ++b) {
        if (rng.NextDouble() < param.edge_prob) {
          g.AddConflictEdge(a, b, 1.0, 1.0);
          oracle.AddConflictEdge(a, b, 1.0, 1.0);
          pairs.emplace_back(a, b);
        }
      }
    }
    // Random orientation sequence.
    for (size_t k = 0; k < 2 * pairs.size(); ++k) {
      const auto [a, b] =
          pairs[static_cast<size_t>(rng.UniformInt(0, pairs.size() - 1))];
      const bool forward = rng.NextDouble() < 0.5;
      const TxnId from = forward ? a : b;
      const TxnId to = forward ? b : a;
      ASSERT_EQ(g.TryOrient(from, to), oracle.TryOrient(from, to))
          << "trial " << trial << " step " << k;
      ASSERT_EQ(oracle.Diff(g), "") << "trial " << trial << " step " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosureReferenceTest,
    testing::Values(RefCase{5, 0.5, 71}, RefCase{7, 0.4, 72},
                    RefCase{9, 0.35, 73}, RefCase{12, 0.25, 74}),
    [](const testing::TestParamInfo<RefCase>& info) {
      return "n" + std::to_string(info.param.nodes) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace wtpgsched
