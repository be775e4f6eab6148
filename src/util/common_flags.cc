#include "util/common_flags.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "util/logging.h"
#include "util/progress.h"

namespace wtpgsched {

void AddCommonToolFlags(FlagParser& flags) {
  flags.AddString("config", "",
                  "JSON config file (SimConfig::ToJson format); explicitly "
                  "set flags override its fields");
  flags.AddString("scheduler", "low", "nodc|asl|c2pl|opt|gow|low|low-lb|2pl");
  flags.AddInt("seed", 1, "base RNG seed");
  flags.AddInt("seeds", 1,
               "replicas at seed, seed+1, ...; aggregates across seeds "
               "when > 1");
  flags.AddInt("jobs", 0,
               "replica worker threads (0 = WTPG_JOBS env or hardware "
               "concurrency); results are identical for any value");
  flags.AddBool("json", false, "print results as JSON");
  flags.AddString("log-level", "warning", "debug|info|warning|error");
  flags.AddBool("help", false, "print usage");
}

void AddTraceFlags(FlagParser& flags) {
  flags.AddString("trace-jsonl", "",
                  "record an event trace and write it as JSONL to this file");
  flags.AddInt("trace-capacity", 1 << 20,
               "trace ring-buffer capacity (most recent events kept)");
}

void AddTelemetryFlags(FlagParser& flags) {
  flags.AddDouble("telemetry-ms", 0.0,
                  "sample run-health gauges every this many sim-time ms "
                  "(0 = off); enables health.* detector counters");
  flags.AddInt("telemetry-capacity", 1 << 16,
               "telemetry ring capacity in rows (most recent kept)");
  flags.AddString("telemetry-csv", "",
                  "write the sampled gauge series as wide CSV to this file");
}

void AddProgressFlags(FlagParser& flags) {
  flags.AddBool("progress", false,
                "show a replicas-completed status line on stderr (only when "
                "stderr is a TTY)");
  flags.AddBool("progress-force", false,
                "like --progress but writes even when stderr is not a TTY");
}

void AddFaultFlags(FlagParser& flags) {
  const FaultConfig defaults;
  flags.AddDouble("fault-mttf-ms", defaults.dpn_mttf_ms,
                  "mean time to DPN failure, exponential (0 = no crashes)");
  flags.AddDouble("fault-mttr-ms", defaults.dpn_mttr_ms,
                  "mean time to DPN repair, exponential");
  flags.AddDouble("fault-straggler-mtbf-ms", defaults.straggler_mtbf_ms,
                  "mean time between DPN slowdown windows (0 = none)");
  flags.AddDouble("fault-straggler-duration-ms",
                  defaults.straggler_duration_ms,
                  "length of each slowdown window");
  flags.AddDouble("fault-straggler-factor", defaults.straggler_factor,
                  "scan service-time multiplier inside a window (>= 1)");
  flags.AddDouble("fault-abort-rate", defaults.abort_rate_per_s,
                  "spontaneous-abort injections per simulated second");
  flags.AddDouble("fault-backoff-base-ms", defaults.backoff_base_ms,
                  "restart backoff base (doubles per restart)");
  flags.AddDouble("fault-backoff-max-ms", defaults.backoff_max_ms,
                  "restart backoff cap");
  flags.AddDouble("fault-backoff-jitter", defaults.backoff_jitter,
                  "backoff jitter fraction in [0, 1)");
}

void ApplyProgressFlags(const FlagParser& flags) {
  if (flags.GetBool("progress-force")) {
    SetProgressMode(ProgressMode::kForce);
  } else if (flags.GetBool("progress")) {
    SetProgressMode(ProgressMode::kAuto);
  }
}

int HandleStandardFlags(FlagParser& flags, int argc,
                        const char* const* argv) {
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  LogLevel log_level;
  if (!ParseLogLevel(flags.GetString("log-level"), &log_level)) {
    std::fprintf(stderr, "unknown --log-level '%s'\n",
                 flags.GetString("log-level").c_str());
    return 2;
  }
  SetLogLevel(log_level);
  return -1;
}

bool LoadConfig(const FlagParser& flags, SimConfig* config,
                std::initializer_list<std::string_view> own_flags) {
  const bool from_file = flags.WasSet("config");
  if (from_file) {
    StatusOr<SimConfig> loaded =
        SimConfig::FromJsonFile(flags.GetString("config"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "--config: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    *config = *loaded;
  }
  return ForEachField(*config, [&](std::string_view, std::string_view,
                                   std::string_view flag, auto& field) {
    const std::string name(flag);
    if (flag.empty() || !flags.Has(name) ||
        (from_file && !flags.WasSet(name)) ||
        std::ranges::find(own_flags, flag) != own_flags.end()) {
      return true;
    }
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      field = flags.GetDouble(name);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = flags.GetBool(name);
    } else if constexpr (std::is_same_v<T, SchedulerKind>) {
      if (!ParseSchedulerKind(flags.GetString(name), &field)) {
        std::fprintf(stderr, "unknown scheduler '%s'\n",
                     flags.GetString(name).c_str());
        return false;
      }
    } else {
      return GetIntFlag(flags, name, &field);
    }
    return true;
  });
}

}  // namespace wtpgsched
