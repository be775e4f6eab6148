#include "driver/reference_search.h"

#include <cmath>

#include "util/logging.h"

namespace wtpgsched {

OperatingPoint ReferenceFindRate(double target_s, double lo_tps, double hi_tps,
                                 int iters, double tol_s,
                                 const ProbeRunner& run) {
  WTPG_CHECK_GT(lo_tps, 0.0);
  WTPG_CHECK_GT(hi_tps, lo_tps);

  auto fill = [](OperatingPoint* point, double rate,
                 const AggregateResult& at) {
    point->lambda_tps = rate;
    point->mean_response_s = at.mean_response_s;
    point->throughput_tps = at.throughput_tps;
    point->num_seeds = at.num_seeds;
  };

  OperatingPoint point;
  const std::vector<AggregateResult> brackets = run({hi_tps, lo_tps});
  const AggregateResult& at_hi = brackets[0];
  const AggregateResult& at_lo = brackets[1];
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

  double lo = lo_tps;
  double hi = hi_tps;
  AggregateResult best = at_lo;
  double best_rate = lo_tps;
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const AggregateResult at_mid = run({mid}).front();
    if (std::abs(at_mid.mean_response_s - target_s) <
        std::abs(best.mean_response_s - target_s)) {
      best = at_mid;
      best_rate = mid;
    }
    if (std::abs(at_mid.mean_response_s - target_s) <= tol_s) break;
    if (at_mid.mean_response_s < target_s) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  fill(&point, best_rate, best);
  point.converged = std::abs(best.mean_response_s - target_s) <= tol_s;
  return point;
}

}  // namespace wtpgsched
