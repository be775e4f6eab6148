#ifndef WTPG_SCHED_TRACE_TRACE_READER_H_
#define WTPG_SCHED_TRACE_TRACE_READER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_event.h"
#include "trace/trace_export.h"
#include "util/status.h"

namespace wtpgsched {

// A JSONL trace parsed back into memory (see WriteJsonlTrace for the
// format). Unknown event types and unknown keys are errors — the schema
// line must match kTraceSchemaVersion, so a mismatch means a corrupt or
// incompatible file, not a forward-compatibility case.
struct ParsedTrace {
  TraceMeta meta;
  std::vector<TraceEvent> events;
  // Telemetry gauge series merged into the trace ("gauge-def" /
  // "gauge" lines); empty when the run had telemetry disabled.
  std::vector<std::string> gauge_names;
  struct GaugeSample {
    SimTime time = 0;
    int gauge = 0;  // Index into gauge_names.
    double value = 0.0;
  };
  std::vector<GaugeSample> gauge_samples;
  // The footer's counter-registry snapshot, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> footer_counters;
  // From the footer; zero when the footer is missing (truncated file).
  uint64_t dropped = 0;
  bool footer_seen = false;
};

// Parses one event line. Exposed for tests.
StatusOr<TraceEvent> ParseEventJson(const std::string& line);

// NotFound when `path` cannot be opened; InvalidArgument on a malformed
// line, an unknown event type or key, or an event time that is negative or
// earlier than the one before.
Status ReadJsonlTrace(const std::string& path, ParsedTrace* out);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TRACE_TRACE_READER_H_
