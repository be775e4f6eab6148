#include "workload/pattern.h"

#include <set>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

TEST(PatternTest, Experiment1Shape) {
  const Pattern p = Pattern::Experiment1(16);
  EXPECT_EQ(p.name(), "Pattern1");
  ASSERT_EQ(p.steps().size(), 4u);
  EXPECT_DOUBLE_EQ(p.TotalCost(), 7.2);
  EXPECT_EQ(p.MaxFileId(), 15);
  // X-locks requested at the first two (reading) steps.
  EXPECT_FALSE(p.steps()[0].is_write);
  EXPECT_EQ(p.steps()[0].request_mode, kX);
  EXPECT_FALSE(p.steps()[1].is_write);
  EXPECT_EQ(p.steps()[1].request_mode, kX);
  EXPECT_TRUE(p.steps()[2].is_write);
  EXPECT_TRUE(p.steps()[3].is_write);
}

TEST(PatternTest, Experiment2Shape) {
  const Pattern p = Pattern::Experiment2();
  ASSERT_EQ(p.steps().size(), 3u);
  EXPECT_DOUBLE_EQ(p.TotalCost(), 7.0);
  EXPECT_EQ(p.MaxFileId(), 15);
  EXPECT_EQ(p.steps()[0].request_mode, kS);  // Read-only file: S lock.
}

TEST(PatternTest, InstantiateExp1DistinctFiles) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto steps = p.Instantiate(&rng, 1, ErrorModel{0.0});
    ASSERT_EQ(steps.size(), 4u);
    EXPECT_NE(steps[0].file, steps[1].file);  // F1 != F2.
    EXPECT_EQ(steps[0].file, steps[2].file);  // w(F1) hits F1.
    EXPECT_EQ(steps[1].file, steps[3].file);  // w(F2) hits F2.
    for (const StepSpec& s : steps) {
      EXPECT_GE(s.file, 0);
      EXPECT_LT(s.file, 16);
    }
  }
}

// At theta 50 nearly every draw is the pool's first file, so a second
// distinct variable clashes 10,000 times in a row; it then binds the first
// file of the pool that no earlier distinct variable holds.
TEST(PatternTest, SteepZipfFallsBackToFirstFreeFile) {
  const Pattern p1 = Pattern::Experiment1(16).WithZipf(50.0);
  const Pattern p2 = Pattern::Experiment2().WithZipf(50.0);
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto steps = p1.Instantiate(&rng, 1, ErrorModel{0.0});
    EXPECT_EQ(steps[0].file, 0);  // F1: the hottest file.
    EXPECT_EQ(steps[1].file, 1);  // F2: the first file F1 does not hold.
    EXPECT_EQ(steps[3].file, 1);
    const auto exp2 = p2.Instantiate(&rng, 1, ErrorModel{0.0});
    EXPECT_EQ(exp2[0].file, 0);  // B, alone in its pool.
    EXPECT_EQ(exp2[1].file, 8);  // F1: the hot pool's first file.
    EXPECT_EQ(exp2[2].file, 9);  // F2: the next free one.
  }
}

TEST(PatternTest, InstantiateExp1Costs) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(2);
  const auto steps = p.Instantiate(&rng, 1, ErrorModel{0.0});
  EXPECT_DOUBLE_EQ(steps[0].actual_cost, 1.0);
  EXPECT_DOUBLE_EQ(steps[1].actual_cost, 5.0);
  EXPECT_DOUBLE_EQ(steps[2].actual_cost, 0.2);
  EXPECT_DOUBLE_EQ(steps[3].actual_cost, 1.0);
  // With sigma = 0 and DD = 1 the declarations are exact.
  for (const StepSpec& s : steps) {
    EXPECT_DOUBLE_EQ(s.declared_cost, s.actual_cost);
  }
}

TEST(PatternTest, DeclaredCostDividedByDd) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(3);
  const auto steps = p.Instantiate(&rng, 4, ErrorModel{0.0});
  // Actual (per-step total) cost unchanged; declaration is C/DD.
  EXPECT_DOUBLE_EQ(steps[1].actual_cost, 5.0);
  EXPECT_DOUBLE_EQ(steps[1].declared_cost, 1.25);
}

TEST(PatternTest, InstantiateExp2Pools) {
  const Pattern p = Pattern::Experiment2();
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const auto steps = p.Instantiate(&rng, 1, ErrorModel{0.0});
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_LT(steps[0].file, 8);   // Read-only pool.
    EXPECT_GE(steps[1].file, 8);   // Hot pool.
    EXPECT_GE(steps[2].file, 8);
    EXPECT_NE(steps[1].file, steps[2].file);  // Hot files distinct.
    EXPECT_EQ(steps[0].access, kS);
    EXPECT_EQ(steps[1].access, kX);
  }
}

TEST(PatternTest, FilesCoverPool) {
  const Pattern p = Pattern::Experiment1(8);
  Rng rng(5);
  std::set<FileId> seen;
  for (int trial = 0; trial < 500; ++trial) {
    for (const StepSpec& s : p.Instantiate(&rng, 1, ErrorModel{0.0})) {
      seen.insert(s.file);
    }
  }
  EXPECT_EQ(seen.size(), 8u);  // All files eventually drawn.
}

TEST(PatternTest, ErrorModelPerturbsDeclarations) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(6);
  int differing = 0;
  for (int trial = 0; trial < 100; ++trial) {
    for (const StepSpec& s : p.Instantiate(&rng, 1, ErrorModel{1.0})) {
      EXPECT_GE(s.declared_cost, 0.0);  // Clamped at 0 when x <= -1.
      if (s.declared_cost != s.actual_cost) ++differing;
    }
  }
  EXPECT_GT(differing, 300);  // Nearly all perturbed at sigma = 1.
}

TEST(PatternTest, ErrorModelMeanRoughlyUnbiased) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(7);
  double sum = 0.0;
  const int trials = 3000;
  for (int trial = 0; trial < trials; ++trial) {
    const auto steps = p.Instantiate(&rng, 1, ErrorModel{0.5});
    for (const StepSpec& s : steps) sum += s.declared_cost;
  }
  // E[C0 * (1 + x)] = C0 for small sigma (clamping is rare at 0.5).
  EXPECT_NEAR(sum / trials, 7.2, 0.25);
}

TEST(PatternTest, LargeSigmaProducesZeroDeclarations) {
  const Pattern p = Pattern::Experiment1(16);
  Rng rng(8);
  int zeros = 0;
  for (int trial = 0; trial < 200; ++trial) {
    for (const StepSpec& s : p.Instantiate(&rng, 1, ErrorModel{10.0})) {
      if (s.declared_cost == 0.0) ++zeros;
    }
  }
  // P(x <= -1) with sigma=10 is ~0.46 per step.
  EXPECT_GT(zeros, 200);
}

TEST(PatternTest, CustomPatternRoundTrip) {
  Pattern p("custom", {{0, 3, false}},
            {{/*is_write=*/true, kX, 0, 2.5}});
  Rng rng(9);
  const auto steps = p.Instantiate(&rng, 2, ErrorModel{0.0});
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_DOUBLE_EQ(steps[0].actual_cost, 2.5);
  EXPECT_DOUBLE_EQ(steps[0].declared_cost, 1.25);
  EXPECT_EQ(steps[0].access, kX);
}

}  // namespace
}  // namespace wtpgsched
