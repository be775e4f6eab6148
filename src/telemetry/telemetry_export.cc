#include "telemetry/telemetry_export.h"

#include "util/csv.h"
#include "util/string_util.h"

namespace wtpgsched {

std::vector<GaugeTrack> ToGaugeTracks(const TelemetryStore& store) {
  std::vector<GaugeTrack> tracks(store.num_columns());
  for (size_t col = 0; col < store.num_columns(); ++col) {
    tracks[col].name = store.name(col);
    tracks[col].points.reserve(store.size());
  }
  for (size_t row = 0; row < store.size(); ++row) {
    const SimTime t = store.time(row);
    for (size_t col = 0; col < store.num_columns(); ++col) {
      tracks[col].points.emplace_back(t, store.value(row, col));
    }
  }
  return tracks;
}

Status WriteTelemetryCsv(const TelemetryStore& store,
                         const std::string& path) {
  CsvWriter writer;
  Status status = writer.Open(path);
  if (!status.ok()) return status;
  std::vector<std::string> header;
  header.reserve(store.num_columns() + 1);
  header.push_back("time_s");
  for (const std::string& name : store.names()) header.push_back(name);
  writer.WriteHeader(header);
  std::vector<std::string> row(store.num_columns() + 1);
  for (size_t r = 0; r < store.size(); ++r) {
    row[0] = FormatDouble(TimeToSeconds(store.time(r)), 6);
    for (size_t col = 0; col < store.num_columns(); ++col) {
      row[col + 1] = Format("%.9g", store.value(r, col));
    }
    writer.WriteRow(row);
  }
  return writer.Close();
}

}  // namespace wtpgsched
