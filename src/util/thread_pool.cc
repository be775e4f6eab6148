#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace wtpgsched {

void ParallelFor(int jobs, size_t n,
                 const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const size_t workers = std::min(static_cast<size_t>(std::max(jobs, 1)), n);
  // jthreads join when `helpers` goes out of scope, also when the caller's
  // share throws.
  std::vector<std::jthread> helpers;
  for (size_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  drain();
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace wtpgsched
