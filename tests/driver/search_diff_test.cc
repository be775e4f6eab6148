// Differential test of the operating-point search: FindRateForResponseTime
// runs several bisection levels per batch, and must return exactly the
// OperatingPoint of the serial search (driver/reference_search.h) at any
// jobs value. Fields are compared with EXPECT_EQ, bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/reference_search.h"
#include "driver/sweep.h"
#include "machine/config.h"
#include "util/string_util.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

constexpr double kLo = 0.05;
constexpr double kHi = 1.6;
constexpr int kIters[] = {0, 1, 2, 5, 6, 9};
constexpr double kTols[] = {0.0, 2.5, 200.0};

void ExpectSamePoint(const OperatingPoint& want, const OperatingPoint& got,
                     const std::string& where) {
  EXPECT_EQ(want.lambda_tps, got.lambda_tps) << where;
  EXPECT_EQ(want.mean_response_s, got.mean_response_s) << where;
  EXPECT_EQ(want.throughput_tps, got.throughput_tps) << where;
  EXPECT_EQ(want.num_seeds, got.num_seeds) << where;
  EXPECT_EQ(want.converged, got.converged) << where;
}

// The serial search's probes, run by the simulator on the calling thread.
ProbeRunner SerialRunner(const SimConfig& base, const Pattern& pattern,
                         int num_seeds) {
  return [&base, &pattern, num_seeds](const std::vector<double>& rates) {
    std::vector<AggregateResult> results;
    for (const SweepPoint& p :
         SweepArrivalRates(base, pattern, rates, num_seeds, /*jobs=*/1)) {
      results.push_back(p.result);
    }
    return results;
  };
}

// A 60 s horizon keeps each run to a few milliseconds. Its low bracket is
// 0.2 TPS, since at kLo a seed may complete nothing within it. Mean response
// time then climbs from about 9 s to 21-25 s at kHi, so a 15 s target is
// bracketed, 1 s lies below the curve and 500 s above it.
constexpr double kShortLo = 0.2;

TEST(SearchDiffTest, MatchesSerialSearchAtAnyJobs) {
  const Pattern pattern = Pattern::Experiment1(16);
  struct Case {
    SchedulerKind kind;
    uint64_t seed;
  };
  for (const Case& c : {Case{SchedulerKind::kLow, 3},
                        Case{SchedulerKind::kC2pl, 5},
                        Case{SchedulerKind::kNodc, 8}}) {
    SimConfig base;
    base.scheduler = c.kind;
    base.machine.num_files = 16;
    base.run.horizon_ms = 60'000;
    base.run.seed = c.seed;
    for (int seeds : {1, 2, 3}) {
      const ProbeRunner serial = SerialRunner(base, pattern, seeds);
      for (int iters : kIters) {
        for (double tol : kTols) {
          const OperatingPoint want =
              ReferenceFindRate(15.0, kShortLo, kHi, iters, tol, serial);
          for (int jobs : {1, 2, 3, 4, 8}) {
            ExpectSamePoint(
                want,
                FindRateForResponseTime(base, pattern, 15.0, kShortLo, kHi,
                                        seeds, iters, tol, jobs),
                StrCat(SchedulerKindName(c.kind), " seeds=", seeds,
                       " iters=", iters, " tol=", tol, " jobs=", jobs));
          }
        }
      }
      // Both bracket exits: a target below the whole curve returns the low
      // bracket, one above it the high bracket.
      for (double target : {1.0, 500.0}) {
        const OperatingPoint want =
            ReferenceFindRate(target, kShortLo, kHi, 6, 2.5, serial);
        EXPECT_FALSE(want.converged);
        EXPECT_EQ(want.lambda_tps, target < 15.0 ? kShortLo : kHi);
        for (int jobs : {1, 2, 3, 4, 8}) {
          ExpectSamePoint(
              want,
              FindRateForResponseTime(base, pattern, target, kShortLo, kHi,
                                      seeds, 6, 2.5, jobs),
              StrCat(SchedulerKindName(c.kind), " seeds=", seeds,
                     " target=", target, " jobs=", jobs));
        }
      }
    }
  }
}

// A synthetic response-time curve, rising and noisy (not monotone), and a
// runner that records the size of each batch. No simulation or thread runs,
// so any worker count can be checked.
struct FakeRunner {
  explicit FakeRunner(int seeds) : num_seeds(seeds) {}

  int num_seeds;
  std::vector<size_t> batches;

  ProbeRunner Runner() {
    return [this](const std::vector<double>& rates) {
      batches.push_back(rates.size());
      std::vector<AggregateResult> results;
      for (double rate : rates) {
        AggregateResult r;
        r.mean_response_s =
            5.0 + 100.0 * rate * rate + 4.0 * std::sin(37.0 * rate);
        r.throughput_tps = 0.9 * rate;
        r.num_seeds = num_seeds;
        results.push_back(r);
      }
      return results;
    };
  }
};

// Levels of a complete bisection subtree of `probes` midpoints; -1 when
// `probes` is not 2^d - 1.
int SubtreeDepth(size_t probes) {
  int depth = 0;
  while ((size_t{1} << depth) - 1 < probes) ++depth;
  return (size_t{1} << depth) - 1 == probes ? depth : -1;
}

TEST(SearchDiffTest, BatchesHoldTheLevelsThatFitTheWorkers) {
  for (int workers : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 1000}) {
    for (int seeds : {1, 2, 3}) {
      for (int iters : {0, 1, 2, 5, 6, 9, 12}) {
        for (double tol : kTols) {
          for (double target : {1.0, 20.0, 40.0, 70.0, 110.0, 150.0, 1000.0}) {
            const std::string where =
                StrCat("workers=", workers, " seeds=", seeds, " iters=",
                       iters, " tol=", tol, " target=", target);
            FakeRunner serial(seeds);
            const OperatingPoint want = ReferenceFindRate(
                target, kLo, kHi, iters, tol, serial.Runner());
            FakeRunner batched(seeds);
            ExpectSamePoint(want,
                            BisectRateForResponseTime(target, kLo, kHi, seeds,
                                                      iters, tol, workers,
                                                      batched.Runner()),
                            where);

            // The first batch: both brackets plus the complete top levels
            // that fit beside them, and no more.
            ASSERT_FALSE(batched.batches.empty()) << where;
            const int first = SubtreeDepth(batched.batches[0] - 2);
            ASSERT_GE(first, 0) << where;
            EXPECT_LE(first, iters) << where;
            if (first > 0) {
              EXPECT_LE(static_cast<int>(batched.batches[0]) * seeds, workers)
                  << where;
            }
            if (first < iters) {
              EXPECT_GT((2 + (int64_t{2} << first) - 1) * seeds, workers)
                  << where;
            }
            // Every later batch: the complete subtree of the next d levels,
            // d >= 1 the largest depth whose replicas fit the workers, capped
            // by the iterations left. So it never exceeds min(workers,
            // (2^left - 1) x seeds) replicas, unless one level alone does.
            int left = iters - first;
            for (size_t b = 1; b < batched.batches.size(); ++b) {
              const int replicas = static_cast<int>(batched.batches[b]) * seeds;
              const int depth = SubtreeDepth(batched.batches[b]);
              ASSERT_GE(depth, 1) << where << " batch " << b;
              ASSERT_LE(depth, left) << where << " batch " << b;
              EXPECT_LE(replicas,
                        std::max<int64_t>(
                            seeds, std::min<int64_t>(
                                       workers,
                                       ((int64_t{1} << left) - 1) * seeds)))
                  << where << " batch " << b;
              if (depth < left) {
                EXPECT_GT(((int64_t{2} << depth) - 1) * seeds, workers)
                    << where << " batch " << b;
              }
              left -= depth;
            }
            // Below 3 x seeds workers the batches are the serial search's.
            if (workers < 3 * seeds) {
              EXPECT_EQ(batched.batches, serial.batches) << where;
            }
          }
        }
      }
    }
  }
}

TEST(SearchDiffTest, FourWorkersRunSixLevelsInFourBatches) {
  // {hi, lo, m1}, {m2, m3, m3'}, {m4, m5, m5'}, {m6}: 10 probes in 4
  // batches, where the serial search runs 8 in 7.
  FakeRunner batched(1);
  BisectRateForResponseTime(70.0, kLo, kHi, 1, 6, 0.0, 4, batched.Runner());
  EXPECT_EQ(batched.batches, (std::vector<size_t>{3, 3, 3, 1}));
}

}  // namespace
}  // namespace wtpgsched
