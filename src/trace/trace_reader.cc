#include "trace/trace_reader.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "util/json_reader.h"
#include "util/string_util.h"

namespace wtpgsched {

namespace {

const std::unordered_map<std::string, TraceEventType>& TypeByName() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, TraceEventType>;
    for (size_t i = 0; i < static_cast<size_t>(TraceEventType::kNumTypes);
         ++i) {
      const auto type = static_cast<TraceEventType>(i);
      (*m)[TraceEventTypeName(type)] = type;
    }
    return m;
  }();
  return *map;
}

// An integer field that T holds, read from the number's text: a double
// would round times above 2^53, and a cast into T would wrap.
template <typename T>
Status ReadInt(const std::string& key, const JsonValue& v, T* out) {
  int64_t n = 0;
  if (v.type() != JsonValue::Type::kNumber ||
      !ParseInt64(v.number_text(), &n) || !std::in_range<T>(n)) {
    return Status::InvalidArgument(
        StrCat(key, ": expected an integer in [",
               std::numeric_limits<T>::min(), ", ",
               std::numeric_limits<T>::max(), "]"));
  }
  *out = static_cast<T>(n);
  return Status::Ok();
}

// A double field. JSON numbers cannot be infinite, so the writer emits
// non-finite values as "inf"/"-inf" strings, and a gauge's NaN as null.
bool ReadDouble(const JsonValue& v, double* out) {
  switch (v.type()) {
    case JsonValue::Type::kNumber:
      *out = v.number_value();
      return true;
    case JsonValue::Type::kString:
      return ParseDouble(v.string_value(), out);
    case JsonValue::Type::kNull:
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    default:
      return false;
  }
}

// The string `v` holds, or nullptr when it is not a string.
const std::string* StringOf(const JsonValue& v) {
  return v.type() == JsonValue::Type::kString ? &v.string_value() : nullptr;
}

// The string under `key`, or nullptr when absent or not a string.
const std::string* FindString(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr ? StringOf(*v) : nullptr;
}

// Parses one line as a JSON object.
StatusOr<JsonValue> ParseObjectLine(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (parsed.ok() && !parsed->is_object()) {
    return Status::InvalidArgument("not a JSON object");
  }
  return parsed;
}

Status EventFromFields(const JsonValue& obj, TraceEvent* e) {
  *e = TraceEvent{};
  for (const auto& [key, value] : obj.items()) {
    if (key == "type") {
      const std::string* name = StringOf(value);
      const auto it = name != nullptr ? TypeByName().find(*name)
                                      : TypeByName().end();
      if (it == TypeByName().end()) {
        return Status::InvalidArgument("unknown event type");
      }
      e->type = it->second;
      continue;
    }
    if (key == "mode") {
      const std::string* mode = StringOf(value);
      if (mode == nullptr || (*mode != "S" && *mode != "X")) {
        return Status::InvalidArgument("bad mode");
      }
      e->mode = *mode == "X" ? LockMode::kExclusive : LockMode::kShared;
      continue;
    }
    if (key == "v" || key == "v2") {
      if (!ReadDouble(value, key == "v" ? &e->value : &e->value2)) {
        return Status::InvalidArgument(StrCat(key, ": expected a number"));
      }
      continue;
    }
    Status s;
    if (key == "t") s = ReadInt(key, value, &e->time);
    else if (key == "txn") s = ReadInt(key, value, &e->txn);
    else if (key == "inc") s = ReadInt(key, value, &e->incarnation);
    else if (key == "file") s = ReadInt(key, value, &e->file);
    else if (key == "node") s = ReadInt(key, value, &e->node);
    else if (key == "step") s = ReadInt(key, value, &e->step);
    else if (key == "arg") s = ReadInt(key, value, &e->arg);
    else return Status::InvalidArgument(StrCat("unknown key '", key, "'"));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<TraceEvent> ParseEventJson(const std::string& line) {
  StatusOr<JsonValue> obj = ParseObjectLine(line);
  if (!obj.ok()) return obj.status();
  if (obj->Find("type") == nullptr) {
    return Status::InvalidArgument("event line without \"type\"");
  }
  TraceEvent e;
  Status s = EventFromFields(*obj, &e);
  if (!s.ok()) return s;
  return e;
}

Status ReadJsonlTrace(const std::string& path, ParsedTrace* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open ", path));
  }
  *out = ParsedTrace{};
  std::string line;
  size_t line_no = 0;
  bool header_seen = false;
  const auto line_error = [&](const std::string& message) {
    return Status::InvalidArgument(StrCat(path, ":", line_no, ": ", message));
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = ParseObjectLine(line);
    if (!parsed.ok()) return line_error(parsed.status().message());
    const JsonValue& obj = *parsed;
    if (!header_seen) {
      const std::string* schema = FindString(obj, "schema");
      if (schema == nullptr || *schema != kTraceSchemaVersion) {
        return Status::InvalidArgument(
            StrCat(path, ": missing or unsupported schema (want ",
                   kTraceSchemaVersion, ")"));
      }
      header_seen = true;
      if (const std::string* scheduler = FindString(obj, "scheduler")) {
        out->meta.scheduler = *scheduler;
      }
      // Malformed metadata is ignored: the fields only label reports.
      const auto read_meta = [&](const char* key, auto* field) {
        if (const JsonValue* v = obj.Find(key)) (void)ReadInt(key, *v, field);
      };
      read_meta("num_nodes", &out->meta.num_nodes);
      read_meta("num_files", &out->meta.num_files);
      read_meta("dd", &out->meta.dd);
      read_meta("seed", &out->meta.seed);
      continue;
    }
    const std::string* type = FindString(obj, "type");
    if (type == nullptr) return line_error("event without \"type\"");
    if (*type == "end") {
      out->footer_seen = true;
      if (const JsonValue* dropped = obj.Find("dropped")) {
        (void)ReadInt("dropped", *dropped, &out->dropped);
      }
      if (const JsonValue* counters = obj.Find("counters")) {
        if (!counters->is_object()) {
          return line_error("footer counters: not a JSON object");
        }
        std::map<std::string, uint64_t> by_name;
        for (const auto& [name, value] : counters->items()) {
          Status s = ReadInt(name, value, &by_name[name]);
          if (!s.ok()) return line_error(StrCat("counter ", s.message()));
        }
        out->footer_counters.assign(by_name.begin(), by_name.end());
      }
      continue;
    }
    // A gauge index: gauge-def lines number the series 0, 1, 2, ...
    const JsonValue* g = obj.Find("g");
    int gauge = -1;
    const bool has_gauge = g != nullptr && ReadInt("g", *g, &gauge).ok();
    if (*type == "gauge-def") {
      const std::string* name = FindString(obj, "name");
      if (!has_gauge || name == nullptr ||
          gauge != static_cast<int64_t>(out->gauge_names.size())) {
        return line_error("bad gauge-def line");
      }
      out->gauge_names.push_back(*name);
      continue;
    }
    if (*type == "gauge") {
      ParsedTrace::GaugeSample sample;
      const JsonValue* t = obj.Find("t");
      const JsonValue* v = obj.Find("v");
      if (t == nullptr || v == nullptr || !has_gauge || gauge < 0 ||
          gauge >= static_cast<int64_t>(out->gauge_names.size()) ||
          !ReadInt("t", *t, &sample.time).ok()) {
        return line_error("bad gauge line");
      }
      sample.gauge = gauge;
      if (!ReadDouble(*v, &sample.value)) return line_error("bad gauge value");
      out->gauge_samples.push_back(sample);
      continue;
    }
    TraceEvent e;
    Status es = EventFromFields(obj, &e);
    if (!es.ok()) return line_error(es.message());
    // A recorder stamps events with the simulated clock, so times start at
    // 0 and never decrease. SummarizeTrace subtracts and sums them, which
    // cannot overflow on such a stream.
    if (e.time < 0 ||
        (!out->events.empty() && e.time < out->events.back().time)) {
      return line_error(StrCat("time ", e.time, " out of order"));
    }
    out->events.push_back(e);
  }
  if (!header_seen) {
    return Status::InvalidArgument(StrCat(path, ": empty trace"));
  }
  return Status::Ok();
}

}  // namespace wtpgsched
