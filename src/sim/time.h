#ifndef WTPG_SCHED_SIM_TIME_H_
#define WTPG_SCHED_SIM_TIME_H_

#include <cstdint>

namespace wtpgsched {

// Simulated time in integer microseconds. The paper's clock is 1 ms; we use
// microseconds so that fractional-object costs (e.g. a 0.2-object write at
// DD=8 -> 25 ms of service) and quantum arithmetic stay exact in integers,
// which keeps event ordering deterministic.
using SimTime = int64_t;

inline constexpr SimTime kSimTimeMax = INT64_MAX;

// One tick of the clock, in ms. A positive period below it can round to
// zero ticks, and a timer on such a period never advances the clock.
inline constexpr double kTickMs = 0.001;

constexpr SimTime MsToTime(double ms) {
  return static_cast<SimTime>(ms * 1000.0 + (ms >= 0 ? 0.5 : -0.5));
}

constexpr SimTime SecondsToTime(double s) { return MsToTime(s * 1000.0); }

constexpr double TimeToMs(SimTime t) { return static_cast<double>(t) / 1000.0; }

constexpr double TimeToSeconds(SimTime t) {
  return static_cast<double>(t) / 1'000'000.0;
}

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_TIME_H_
