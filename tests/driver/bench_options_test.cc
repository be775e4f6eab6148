#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "driver/experiments.h"

namespace wtpgsched {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();

// Sets (value != nullptr) or unsets an environment variable for the
// guard's lifetime, then restores whatever was there before.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    Set(value);
  }
  ~ScopedEnv() { Set(had_old_ ? old_.c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void Set(const char* value) {
    if (value != nullptr) {
      setenv(name_, value, /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }

  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// GetBenchOptions with every effort knob unset except `name`.
BenchOptions OptionsWith(const char* name, const char* value) {
  ScopedEnv fast("WTPG_FAST", nullptr);
  ScopedEnv seeds("WTPG_SEEDS", nullptr);
  ScopedEnv iters("WTPG_RT_ITERS", nullptr);
  ScopedEnv tol("WTPG_RT_TOL", nullptr);
  ScopedEnv horizon("WTPG_HORIZON_MS", nullptr);
  ScopedEnv jobs("WTPG_JOBS", nullptr);
  ScopedEnv knob(name, value);
  return GetBenchOptions();
}

TEST(BenchOptionsTest, HostileSeedsKeepTheDefault) {
  const int fallback = BenchOptions{}.seeds;
  // 4294967297 = 2^32 + 1 would wrap to 1 through an int cast.
  for (const char* value : {"0", "-3", "4294967297", "two", "1.5"}) {
    EXPECT_EQ(OptionsWith("WTPG_SEEDS", value).seeds, fallback) << value;
  }
}

TEST(BenchOptionsTest, HostileHorizonsKeepTheDefault) {
  const double fallback = BenchOptions{}.horizon_ms;
  for (const char* value : {"-5", "0", "1e-9", "nan", "inf", "1e300"}) {
    EXPECT_EQ(OptionsWith("WTPG_HORIZON_MS", value).horizon_ms, fallback)
        << value;
  }
}

TEST(BenchOptionsTest, HostileEffortKnobsKeepTheDefaults) {
  const BenchOptions defaults;
  EXPECT_EQ(OptionsWith("WTPG_RT_ITERS", "-1").rt_iters, defaults.rt_iters);
  EXPECT_EQ(OptionsWith("WTPG_RT_TOL", "-0.5").rt_tol_s, defaults.rt_tol_s);
  EXPECT_EQ(OptionsWith("WTPG_JOBS", "-2").jobs, defaults.jobs);
  EXPECT_EQ(OptionsWith("WTPG_JOBS", "8589934596").jobs, defaults.jobs);
}

TEST(BenchOptionsTest, ValidValuesApply) {
  EXPECT_EQ(OptionsWith("WTPG_SEEDS", "3").seeds, 3);
  EXPECT_EQ(OptionsWith("WTPG_RT_ITERS", "0").rt_iters, 0);
  EXPECT_EQ(OptionsWith("WTPG_RT_TOL", "0.25").rt_tol_s, 0.25);
  EXPECT_EQ(OptionsWith("WTPG_HORIZON_MS", "1234.5").horizon_ms, 1234.5);
  EXPECT_EQ(OptionsWith("WTPG_JOBS", "2").jobs, 2);
}

TEST(BenchOptionsTest, FastModeStillAppliesUnderTheKnobs) {
  ScopedEnv fast("WTPG_FAST", "1");
  ScopedEnv seeds("WTPG_SEEDS", "0");
  ScopedEnv horizon("WTPG_HORIZON_MS", nullptr);
  const BenchOptions options = GetBenchOptions();
  EXPECT_EQ(options.seeds, 1);  // Quick mode's value, not the hostile 0.
  EXPECT_EQ(options.horizon_ms, 500'000);
}

// The open-world bench's knobs, with the ranges exp_openworld passes.
TEST(BenchOptionsTest, OpenWorldFileCountNeverWraps) {
  // 5000000000 would wrap to 705,032,704 files through an int cast.
  for (const char* value : {"0", "1", "-7", "5000000000"}) {
    ScopedEnv files("WTPG_OW_FILES", value);
    EXPECT_EQ(EnvInt("WTPG_OW_FILES", 1'000'000, 2, kIntMax), 1'000'000)
        << value;
  }
  ScopedEnv files("WTPG_OW_FILES", "2");
  EXPECT_EQ(EnvInt("WTPG_OW_FILES", 1'000'000, 2, kIntMax), 2);
}

TEST(BenchOptionsTest, OpenWorldShareStaysInsideTheOpenUnitInterval) {
  const double lo = std::nextafter(0.0, 1.0);
  const double hi = std::nextafter(1.0, 0.0);
  for (const char* value : {"0", "1", "1.5", "-0.1", "nan"}) {
    ScopedEnv share("WTPG_OW_SHARE", value);
    EXPECT_EQ(EnvDouble("WTPG_OW_SHARE", 0.9, lo, hi), 0.9) << value;
  }
  ScopedEnv share("WTPG_OW_SHARE", "0.5");
  EXPECT_EQ(EnvDouble("WTPG_OW_SHARE", 0.9, lo, hi), 0.5);
}

TEST(BenchOptionsTest, UnsetOrEmptyKnobIsTheFallback) {
  {
    ScopedEnv theta("WTPG_OW_THETA", nullptr);
    EXPECT_EQ(EnvDouble("WTPG_OW_THETA", 0.9, 0.0, kDoubleMax), 0.9);
  }
  ScopedEnv theta("WTPG_OW_THETA", "");
  EXPECT_EQ(EnvDouble("WTPG_OW_THETA", 0.9, 0.0, kDoubleMax), 0.9);
}

}  // namespace
}  // namespace wtpgsched
