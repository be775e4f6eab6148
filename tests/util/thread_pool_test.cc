#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> count{0};
  ParallelFor(4, 100, [&count](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  // More jobs than iterations: no helper thread is left waiting for work,
  // and a single iteration runs on the caller.
  ParallelFor(8, 0, [](size_t) { FAIL() << "body must not run"; });
  std::thread::id ran_on;
  ParallelFor(8, 1, [&ran_on](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ClampsToOneWorker) {
  // jobs <= 0 means one worker: the caller runs every iteration in order.
  for (int jobs : {0, -3}) {
    std::vector<size_t> order;
    std::set<std::thread::id> ran_on;
    ParallelFor(jobs, 5, [&](size_t i) {
      order.push_back(i);
      ran_on.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4})) << "jobs=" << jobs;
    EXPECT_EQ(ran_on, (std::set<std::thread::id>{std::this_thread::get_id()}))
        << "jobs=" << jobs;
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  // The caller's first iteration throws; the helper thread is still joined
  // and runs every remaining index before the exception leaves ParallelFor.
  // The helper waits for the throw, so it cannot drain every index before
  // the caller takes one.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(50);
  std::atomic<bool> thrown{false};
  EXPECT_THROW(ParallelFor(2, hits.size(),
                           [&](size_t i) {
                             if (std::this_thread::get_id() == caller) {
                               thrown.store(true);
                               throw std::runtime_error("caller's share");
                             }
                             while (!thrown.load()) std::this_thread::yield();
                             ++hits[i];
                           }),
               std::runtime_error);
  EXPECT_TRUE(thrown.load());
  int missed = 0;
  for (const auto& h : hits) {
    EXPECT_LE(h.load(), 1);
    missed += h.load() == 0 ? 1 : 0;
  }
  EXPECT_EQ(missed, 1);
}

TEST(ThreadPoolTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  // n below, equal to and above the worker count; jobs = 0 runs serially.
  for (int jobs : {0, 1, 2, 3, 8}) {
    for (size_t n : {1, 2, 5, 57}) {
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::thread::id> ran_on(n);
      ParallelFor(jobs, n, [&](size_t i) {
        ++hits[i];
        ran_on[i] = std::this_thread::get_id();
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "jobs=" << jobs << " n=" << n << " i=" << i;
      }
      const std::set<std::thread::id> workers(ran_on.begin(), ran_on.end());
      EXPECT_LE(workers.size(),
                std::min(static_cast<size_t>(std::max(jobs, 1)), n))
          << "jobs=" << jobs << " n=" << n;
    }
  }
}

TEST(ParallelForTest, IterationsOverlapAcrossWorkers) {
  // Two iterations that each wait for the other to start can only finish if
  // they run at the same time. At jobs = 2 there is one helper thread, so
  // the calling thread must run one of them.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::vector<std::thread::id> ran_on(2);
  ParallelFor(2, 2, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    ran_on[i] = std::this_thread::get_id();
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
  });
  EXPECT_EQ(started, 2);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_TRUE(ran_on[0] == std::this_thread::get_id() ||
              ran_on[1] == std::this_thread::get_id());
}

TEST(ParallelForTest, SerialWhenSingleJobPreservesOrder) {
  std::vector<size_t> order;
  ParallelFor(1, 5, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "body must not run"; });
}

}  // namespace
}  // namespace wtpgsched
