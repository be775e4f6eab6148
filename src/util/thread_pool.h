#ifndef WTPG_SCHED_UTIL_THREAD_POOL_H_
#define WTPG_SCHED_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace wtpgsched {

// Runs `body(i)` for i in [0, n) and returns when all iterations finished.
// Iterations must be independent. One atomic cursor hands out the indices,
// in ascending order, to min(jobs, n) - 1 helper threads plus the calling
// thread (jobs <= 1 or n <= 1 runs every iteration in order on the caller).
//
// Determinism contract: no ordering across workers — callers that need
// reproducible aggregates write each iteration's result into a slot keyed
// by its index and reduce serially afterwards (see RunReplicas in
// driver/sim_run.h).
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body);

// Number of hardware threads, at least 1 (hardware_concurrency may report 0
// when unknown).
int HardwareThreads();

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_THREAD_POOL_H_
