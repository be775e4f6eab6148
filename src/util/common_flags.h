#ifndef WTPG_SCHED_UTIL_COMMON_FLAGS_H_
#define WTPG_SCHED_UTIL_COMMON_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "machine/config.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace wtpgsched {

// Flag sets shared by the command-line tools (wtpg_sim, wtpg_sweep), so
// both spell them identically and FlagParser::Help() documents them once.
// Tools call the Add* helpers before any tool-specific flags,
// HandleStandardFlags() right after declaring everything, then LoadConfig()
// for the run's SimConfig.

// --config, --scheduler, --seed, --seeds, --jobs, --json, --log-level,
// --help.
void AddCommonToolFlags(FlagParser& flags);

// --trace-jsonl, --trace-capacity.
void AddTraceFlags(FlagParser& flags);

// --telemetry-ms, --telemetry-capacity, --telemetry-csv.
void AddTelemetryFlags(FlagParser& flags);

// --progress, --progress-force.
void AddProgressFlags(FlagParser& flags);

// The --fault-* flags, one per field of the `fault` config section, with
// FaultConfig's defaults.
void AddFaultFlags(FlagParser& flags);

// Sets the process-wide progress mode from the parsed --progress /
// --progress-force flags (see util/progress.h).
void ApplyProgressFlags(const FlagParser& flags);

// Parses argv and processes the boilerplate: on parse error prints the
// error plus usage and returns 2; on --help prints usage and returns 0; on
// a bad --log-level returns 2, otherwise applies it. Returns -1 when the
// tool should continue.
int HandleStandardFlags(FlagParser& flags, int argc, const char* const* argv);

// Stores the integer flag `name` in *out when it lies in [min, the largest
// T]. Otherwise prints "--name: expected an integer in [min, max]" (the
// config reader's wording) and returns false; the tool then exits 2. The
// range is checked before the cast, which would otherwise wrap silently.
template <typename T>
bool GetIntFlag(const FlagParser& flags, const std::string& name, T* out,
                T min = std::numeric_limits<T>::min()) {
  const int64_t value = flags.GetInt(name);
  if (!std::in_range<T>(value) || static_cast<T>(value) < min) {
    std::fprintf(stderr, "--%s: %s\n", name.c_str(),
                 StrCat("expected an integer in [", min, ", ",
                        std::numeric_limits<T>::max(), "]")
                     .c_str());
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// Builds the tool's config: loads --config when given, then overlays every
// declared flag that ForEachField (machine/config.h) names, except those in
// `own_flags`, which the tool reads itself. Without a file every such flag
// applies, so the tool's flag defaults hold; over a file only the explicitly
// set ones do. Integers go through GetIntFlag and --scheduler through
// ParseSchedulerKind. On a bad file or flag prints the error and returns
// false; the tool then exits 2. The result is not validated.
bool LoadConfig(const FlagParser& flags, SimConfig* config,
                std::initializer_list<std::string_view> own_flags = {});

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_COMMON_FLAGS_H_
