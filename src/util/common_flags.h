#ifndef WTPG_SCHED_UTIL_COMMON_FLAGS_H_
#define WTPG_SCHED_UTIL_COMMON_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "util/flags.h"
#include "util/string_util.h"

namespace wtpgsched {

// Flag sets shared by the command-line tools (wtpg_sim, wtpg_sweep), so
// both spell them identically and FlagParser::Help() documents them once.
// Tools call the Add* helpers before any tool-specific flags, then
// HandleStandardFlags() right after declaring everything.

// --config, --scheduler, --seed, --seeds, --jobs, --json, --log-level,
// --help.
void AddCommonToolFlags(FlagParser& flags);

// --trace-jsonl, --trace-chrome, --trace-capacity.
void AddTraceFlags(FlagParser& flags);

// --telemetry-ms, --telemetry-capacity, --telemetry-csv.
void AddTelemetryFlags(FlagParser& flags);

// --progress, --progress-force.
void AddProgressFlags(FlagParser& flags);

// Sets the process-wide progress mode from the parsed --progress /
// --progress-force flags (see util/progress.h).
void ApplyProgressFlags(const FlagParser& flags);

// Parses argv and processes the boilerplate: on parse error prints the
// error plus usage and returns 2; on --help prints usage and returns 0; on
// a bad --log-level returns 2, otherwise applies it. Returns -1 when the
// tool should continue.
int HandleStandardFlags(FlagParser& flags, int argc, const char* const* argv);

// Stores the integer flag `name` in *out when T holds its value. Otherwise
// prints "--name: expected an integer in [lo, hi]" (the config reader's
// wording) and returns false; the tool then exits 2. The range is checked
// before the cast, which would otherwise wrap silently.
template <typename T>
bool GetIntFlag(const FlagParser& flags, const std::string& name, T* out) {
  const int64_t value = flags.GetInt(name);
  if (!std::in_range<T>(value)) {
    std::fprintf(stderr, "--%s: %s\n", name.c_str(),
                 StrCat("expected an integer in [",
                        std::numeric_limits<T>::min(), ", ",
                        std::numeric_limits<T>::max(), "]")
                     .c_str());
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_COMMON_FLAGS_H_
