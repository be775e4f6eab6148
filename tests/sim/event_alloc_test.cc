// Proves the kernel's steady-state allocation-freedom claim: once the event
// slab and heap are warm, scheduling and popping events performs zero heap
// allocations. The global operator new is replaced (binary-wide)
// with a counting wrapper; the test asserts the counter does not move across
// a warmed-up workload.
//
// This file must NOT be compiled into sanitizer builds' test filters —
// replacing operator new under ASan would fight its interceptors. The asan
// and tsan presets run other suites (see CMakePresets.json).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wtpgsched {
namespace {

TEST(EventAllocTest, SteadyStateSchedulePopIsAllocationFree) {
  Simulator sim;
  // Warm-up: grow the slab and heap past the working set (the callbacks
  // store their captures inline, so only the vectors ever allocate).
  int fired = 0;
  for (int i = 0; i < 256; ++i) {
    sim.ScheduleAfter(i, [&fired] { ++fired; });
  }
  sim.RunToCompletion();
  ASSERT_EQ(fired, 256);

  const std::size_t before = g_heap_allocations.load();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.ScheduleAfter(i, [&fired] { ++fired; });
    }
    sim.RunToCompletion();
  }
  const std::size_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state event traffic hit the heap " << (after - before)
      << " times";
  EXPECT_EQ(fired, 256 + 100 * 64);
}

}  // namespace
}  // namespace wtpgsched
