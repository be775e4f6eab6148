#include "util/common_flags.h"

#include <cstdio>

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
  flags.AddString("trace-chrome", "",
                  "record an event trace and write Chrome trace-event JSON "
                  "(Perfetto-loadable) to this file");
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

}  // namespace wtpgsched
