#ifndef WTPG_SCHED_TESTS_DRIVER_REFERENCE_SEARCH_H_
#define WTPG_SCHED_TESTS_DRIVER_REFERENCE_SEARCH_H_

#include "driver/sweep.h"

namespace wtpgsched {

// The serial operating-point search: the two brackets as one batch, then one
// midpoint per batch. FindRateForResponseTime batches several bisection
// levels at a time and must return exactly this search's OperatingPoint, bit
// for bit, for any worker count (tests/driver/search_diff_test.cc).
OperatingPoint ReferenceFindRate(double target_s, double lo_tps, double hi_tps,
                                 int iters, double tol_s,
                                 const ProbeRunner& run);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_DRIVER_REFERENCE_SEARCH_H_
