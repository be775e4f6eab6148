#include "driver/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/logging.h"

namespace wtpgsched {

namespace {

// Largest depth d <= levels whose bisection subtree, 2^d - 1 midpoints, fits
// beside `fixed` other probes into `workers` replicas of `num_seeds` seeds.
int FittingDepth(int fixed, int levels, int num_seeds, int workers) {
  int depth = 0;
  while (depth < levels &&
         (fixed + (int64_t{2} << depth) - 1) * num_seeds <= workers) {
    ++depth;
  }
  return depth;
}

// Appends the midpoints of the complete `depth`-level bisection subtree
// below [lo, hi] in heap order. Entry k's children are 2k + 1, the midpoint
// of [lo, mid] (k's response time reached the target, so hi moved to mid),
// and 2k + 2, that of [mid, hi]. Each is 0.5 * (lo + hi) of the very doubles
// the bisection holds when it gets there.
void AppendMidpoints(double lo, double hi, int depth,
                     std::vector<double>* rates) {
  const size_t count = (size_t{1} << depth) - 1;
  // Entry k's bounds; each child's are set from its parent's before use.
  std::vector<std::pair<double, double>> bounds(count, {lo, hi});
  for (size_t k = 0; k < count; ++k) {
    const auto [l, h] = bounds[k];
    const double mid = 0.5 * (l + h);
    rates->push_back(mid);
    if (2 * k + 2 < count) {
      bounds[2 * k + 1] = {l, mid};
      bounds[2 * k + 2] = {mid, h};
    }
  }
}

}  // namespace

OperatingPoint BisectRateForResponseTime(double target_s, double lo_tps,
                                         double hi_tps, int num_seeds,
                                         int iters, double tol_s, int workers,
                                         const ProbeRunner& run) {
  WTPG_CHECK_GT(lo_tps, 0.0);
  WTPG_CHECK_GT(hi_tps, lo_tps);
  WTPG_CHECK_GE(num_seeds, 1);
  auto fill = [](OperatingPoint* point, double rate,
                 const AggregateResult& at) {
    point->lambda_tps = rate;
    point->mean_response_s = at.mean_response_s;
    point->throughput_tps = at.throughput_tps;
    point->num_seeds = at.num_seeds;
  };

  OperatingPoint point;
  // Check the brackets first: the curve may sit entirely below or above the
  // target within [lo, hi]. Their batch also holds the top levels of the
  // bisection that fit beside them.
  std::vector<double> rates = {hi_tps, lo_tps};
  AppendMidpoints(lo_tps, hi_tps, FittingDepth(2, iters, num_seeds, workers),
                  &rates);
  std::vector<AggregateResult> results = run(rates);
  const AggregateResult& at_hi = results[0];
  const AggregateResult& at_lo = results[1];
  if (at_hi.mean_response_s <= target_s) {
    fill(&point, hi_tps, at_hi);
    point.converged = false;
    return point;
  }
  if (at_lo.mean_response_s >= target_s) {
    fill(&point, lo_tps, at_lo);
    point.converged = false;
    return point;
  }

  // The serial bisection, one midpoint per iteration. The midpoint is entry
  // k of the current batch's subtree; past its last level the next batch
  // holds the subtree of the levels that fit below [lo, hi].
  double lo = lo_tps;
  double hi = hi_tps;
  AggregateResult best = std::move(results[1]);
  double best_rate = lo_tps;
  rates.erase(rates.begin(), rates.begin() + 2);
  results.erase(results.begin(), results.begin() + 2);
  size_t k = 0;
  for (int i = 0; i < iters; ++i) {
    if (k >= rates.size()) {
      rates.clear();
      AppendMidpoints(
          lo, hi, std::max(1, FittingDepth(0, iters - i, num_seeds, workers)),
          &rates);
      results = run(rates);
      k = 0;
    }
    const double mid = rates[k];
    const AggregateResult& at_mid = results[k];
    if (std::abs(at_mid.mean_response_s - target_s) <
        std::abs(best.mean_response_s - target_s)) {
      best = at_mid;
      best_rate = mid;
    }
    if (std::abs(at_mid.mean_response_s - target_s) <= tol_s) break;
    if (at_mid.mean_response_s < target_s) {
      lo = mid;
      k = 2 * k + 2;
    } else {
      hi = mid;
      k = 2 * k + 1;
    }
  }
  fill(&point, best_rate, best);
  // Converged means the best probe actually landed within tolerance — not
  // merely that the bisection ran out of iterations. An exhausted budget
  // with every probe outside tol_s must report converged == false, or
  // callers (FindRt70, --mode=rt-target) would treat an unconverged rate as
  // the paper's operating point.
  point.converged = std::abs(best.mean_response_s - target_s) <= tol_s;
  return point;
}

OperatingPoint FindRateForResponseTime(const SimConfig& base,
                                       const Pattern& pattern,
                                       double target_s, double lo_tps,
                                       double hi_tps, int num_seeds,
                                       int iters, double tol_s, int jobs) {
  return BisectRateForResponseTime(
      target_s, lo_tps, hi_tps, num_seeds, iters, tol_s, ResolveJobs(jobs),
      [&](const std::vector<double>& rates) {
        std::vector<AggregateResult> results;
        results.reserve(rates.size());
        for (SweepPoint& p :
             SweepArrivalRates(base, pattern, rates, num_seeds, jobs)) {
          results.push_back(std::move(p.result));
        }
        return results;
      });
}

std::vector<SweepPoint> SweepArrivalRates(const SimConfig& base,
                                          const Pattern& pattern,
                                          const std::vector<double>& rates,
                                          int num_seeds, int jobs) {
  std::vector<SimConfig> bases;
  bases.reserve(rates.size());
  for (double rate : rates) {
    SimConfig config = base;
    config.workload.arrival_rate_tps = rate;
    bases.push_back(config);
  }
  const std::vector<AggregateResult> results =
      RunAggregates(bases, pattern, num_seeds, jobs);
  std::vector<SweepPoint> points;
  points.reserve(rates.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    points.push_back(SweepPoint{rates[i], results[i]});
  }
  return points;
}

MplChoice TuneMpl(const SimConfig& base, const Pattern& pattern,
                  const std::vector<int>& candidates, int num_seeds,
                  int jobs) {
  WTPG_CHECK(!candidates.empty());
  std::vector<SimConfig> bases;
  bases.reserve(candidates.size());
  for (int mpl : candidates) {
    SimConfig config = base;
    config.machine.mpl = mpl;
    bases.push_back(config);
  }
  const std::vector<AggregateResult> results =
      RunAggregates(bases, pattern, num_seeds, jobs);
  MplChoice best;
  bool first = true;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (first || results[i].mean_response_s < best.result.mean_response_s) {
      best.mpl = candidates[i];
      best.result = results[i];
      first = false;
    }
  }
  return best;
}

std::vector<int> DefaultMplCandidates() {
  return {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
}

std::vector<FaultSweepPoint> SweepFaultRate(
    const SimConfig& base, const Pattern& pattern,
    const std::vector<double>& mttf_ms_values, int num_seeds, int jobs) {
  std::vector<SimConfig> bases;
  bases.reserve(mttf_ms_values.size());
  for (double mttf_ms : mttf_ms_values) {
    SimConfig config = base;
    config.fault.dpn_mttf_ms = mttf_ms;
    bases.push_back(config);
  }
  const std::vector<AggregateResult> results =
      RunAggregates(bases, pattern, num_seeds, jobs);
  std::vector<FaultSweepPoint> points;
  points.reserve(mttf_ms_values.size());
  for (size_t i = 0; i < mttf_ms_values.size(); ++i) {
    points.push_back(FaultSweepPoint{mttf_ms_values[i], results[i]});
  }
  return points;
}

}  // namespace wtpgsched
