#ifndef WTPG_SCHED_TELEMETRY_TELEMETRY_EXPORT_H_
#define WTPG_SCHED_TELEMETRY_TELEMETRY_EXPORT_H_

#include <string>
#include <vector>

#include "telemetry/gauge_registry.h"
#include "trace/trace_export.h"
#include "util/status.h"

namespace wtpgsched {

// Converts the sampled store into per-series gauge tracks for the trace
// exporters (JSONL gauge lines, Chrome ph:"C" counter tracks).
std::vector<GaugeTrack> ToGaugeTracks(const TelemetryStore& store);

// Writes the store as a wide CSV: header "time_s,<gauge names...>", one row
// per sample, times in seconds at microsecond precision.
Status WriteTelemetryCsv(const TelemetryStore& store, const std::string& path);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TELEMETRY_TELEMETRY_EXPORT_H_
