#include "trace/trace_reader.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <unordered_map>

#include "util/string_util.h"

namespace wtpgsched {

namespace {

// Minimal parser for the flat one-line JSON objects this library writes:
// string / number / bool values, plus one level of nested object whose raw
// text is kept verbatim (the footer's "counters"). Not a general JSON
// parser — traces are produced by WriteJsonlTrace, and anything else should
// fail loudly.
Status ParseFlatObject(const std::string& line,
                       std::map<std::string, std::string>* out) {
  out->clear();
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  auto parse_string = [&](std::string* s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      *s += line[i++];
    }
    if (i >= line.size()) return false;
    ++i;  // Closing quote.
    return true;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') {
    return Status::InvalidArgument("not a JSON object");
  }
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return Status::Ok();
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(&key)) {
      return Status::InvalidArgument("bad JSON key");
    }
    skip_ws();
    if (i >= line.size() || line[i] != ':') {
      return Status::InvalidArgument(StrCat("missing ':' after ", key));
    }
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(&value)) {
        return Status::InvalidArgument(StrCat("bad string value for ", key));
      }
    } else if (i < line.size() && line[i] == '{') {
      // Nested object: capture raw text (no nested strings with braces in
      // this format's counter names worth worrying about beyond quotes).
      const size_t start = i;
      int depth = 0;
      bool in_string = false;
      for (; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
          if (c == '\\') ++i;
          else if (c == '"') in_string = false;
          continue;
        }
        if (c == '"') in_string = true;
        else if (c == '{') ++depth;
        else if (c == '}' && --depth == 0) { ++i; break; }
      }
      if (depth != 0) {
        return Status::InvalidArgument(StrCat("unbalanced object for ", key));
      }
      value = line.substr(start, i - start);
    } else {
      const size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) {
        return Status::InvalidArgument(StrCat("empty value for ", key));
      }
    }
    (*out)[key] = value;
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (i < line.size() && line[i] == '}') return Status::Ok();
    return Status::InvalidArgument("missing ',' or '}'");
  }
}

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

// Status-returning shims over the shared strict parsers in util/string_util.
Status ParseIntField(const std::string& s, int64_t* out) {
  if (!ParseInt64(s, out)) {
    return Status::InvalidArgument(StrCat("bad integer '", s, "'"));
  }
  return Status::Ok();
}

Status ParseDoubleField(const std::string& s, double* out) {
  if (!ParseDouble(s, out)) {
    return Status::InvalidArgument(StrCat("bad number '", s, "'"));
  }
  return Status::Ok();
}

Status EventFromFields(const std::map<std::string, std::string>& kv,
                       TraceEvent* e) {
  *e = TraceEvent{};
  for (const auto& [key, value] : kv) {
    if (key == "type") {
      auto it = TypeByName().find(value);
      if (it == TypeByName().end()) {
        return Status::InvalidArgument(StrCat("unknown event type '", value,
                                              "'"));
      }
      e->type = it->second;
      continue;
    }
    if (key == "mode") {
      if (value != "S" && value != "X") {
        return Status::InvalidArgument(StrCat("bad mode '", value, "'"));
      }
      e->mode = value == "X" ? LockMode::kExclusive : LockMode::kShared;
      continue;
    }
    if (key == "v" || key == "v2") {
      double d = 0.0;
      Status s = ParseDoubleField(value, &d);
      if (!s.ok()) return s;
      (key == "v" ? e->value : e->value2) = d;
      continue;
    }
    int64_t n = 0;
    Status s = ParseIntField(value, &n);
    if (!s.ok()) return Status::InvalidArgument(StrCat(key, ": ", s.message()));
    if (key == "t") e->time = n;
    else if (key == "txn") e->txn = n;
    else if (key == "inc") e->incarnation = static_cast<int32_t>(n);
    else if (key == "file") e->file = static_cast<FileId>(n);
    else if (key == "node") e->node = static_cast<NodeId>(n);
    else if (key == "step") e->step = static_cast<int32_t>(n);
    else if (key == "arg") e->arg = static_cast<int32_t>(n);
    else return Status::InvalidArgument(StrCat("unknown key '", key, "'"));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<TraceEvent> ParseEventJson(const std::string& line) {
  std::map<std::string, std::string> kv;
  Status s = ParseFlatObject(line, &kv);
  if (!s.ok()) return s;
  if (kv.find("type") == kv.end()) {
    return Status::InvalidArgument("event line without \"type\"");
  }
  TraceEvent e;
  s = EventFromFields(kv, &e);
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
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::map<std::string, std::string> kv;
    Status s = ParseFlatObject(line, &kv);
    if (!s.ok()) {
      return Status::InvalidArgument(
          StrCat(path, ":", line_no, ": ", s.message()));
    }
    if (!header_seen) {
      auto it = kv.find("schema");
      if (it == kv.end() || it->second != kTraceSchemaVersion) {
        return Status::InvalidArgument(
            StrCat(path, ": missing or unsupported schema (want ",
                   kTraceSchemaVersion, ")"));
      }
      header_seen = true;
      if (kv.count("scheduler")) out->meta.scheduler = kv["scheduler"];
      int64_t n = 0;
      if (kv.count("num_nodes") && ParseIntField(kv["num_nodes"], &n).ok()) {
        out->meta.num_nodes = static_cast<int>(n);
      }
      if (kv.count("num_files") && ParseIntField(kv["num_files"], &n).ok()) {
        out->meta.num_files = static_cast<int>(n);
      }
      if (kv.count("dd") && ParseIntField(kv["dd"], &n).ok()) {
        out->meta.dd = static_cast<int>(n);
      }
      if (kv.count("seed") && ParseIntField(kv["seed"], &n).ok()) {
        out->meta.seed = static_cast<uint64_t>(n);
      }
      continue;
    }
    auto type_it = kv.find("type");
    if (type_it == kv.end()) {
      return Status::InvalidArgument(
          StrCat(path, ":", line_no, ": event without \"type\""));
    }
    if (type_it->second == "end") {
      out->footer_seen = true;
      int64_t n = 0;
      if (kv.count("dropped") && ParseIntField(kv["dropped"], &n).ok()) {
        out->dropped = static_cast<uint64_t>(n);
      }
      if (kv.count("counters")) {
        std::map<std::string, std::string> counters;
        Status cs = ParseFlatObject(kv["counters"], &counters);
        if (!cs.ok()) {
          return Status::InvalidArgument(
              StrCat(path, ":", line_no, ": footer counters: ", cs.message()));
        }
        for (const auto& [name, value] : counters) {
          int64_t v = 0;
          Status vs = ParseIntField(value, &v);
          if (!vs.ok()) {
            return Status::InvalidArgument(StrCat(path, ":", line_no,
                                                  ": counter ", name, ": ",
                                                  vs.message()));
          }
          out->footer_counters.emplace_back(name, static_cast<uint64_t>(v));
        }
      }
      continue;
    }
    if (type_it->second == "gauge-def") {
      int64_t index = 0;
      auto g = kv.find("g");
      auto name = kv.find("name");
      if (g == kv.end() || name == kv.end() ||
          !ParseIntField(g->second, &index).ok() ||
          index != static_cast<int64_t>(out->gauge_names.size())) {
        return Status::InvalidArgument(
            StrCat(path, ":", line_no, ": bad gauge-def line"));
      }
      out->gauge_names.push_back(name->second);
      continue;
    }
    if (type_it->second == "gauge") {
      ParsedTrace::GaugeSample sample;
      int64_t n = 0;
      auto t = kv.find("t");
      auto g = kv.find("g");
      auto v = kv.find("v");
      if (t == kv.end() || g == kv.end() || v == kv.end() ||
          !ParseIntField(t->second, &sample.time).ok() ||
          !ParseIntField(g->second, &n).ok() || n < 0 ||
          n >= static_cast<int64_t>(out->gauge_names.size())) {
        return Status::InvalidArgument(
            StrCat(path, ":", line_no, ": bad gauge line"));
      }
      sample.gauge = static_cast<int>(n);
      // Non-finite values are written as "inf"/"-inf" strings.
      if (v->second == "inf") {
        sample.value = std::numeric_limits<double>::infinity();
      } else if (v->second == "-inf") {
        sample.value = -std::numeric_limits<double>::infinity();
      } else if (v->second == "null") {
        sample.value = std::numeric_limits<double>::quiet_NaN();
      } else if (!ParseDoubleField(v->second, &sample.value).ok()) {
        return Status::InvalidArgument(
            StrCat(path, ":", line_no, ": bad gauge value"));
      }
      out->gauge_samples.push_back(sample);
      continue;
    }
    TraceEvent e;
    Status es = EventFromFields(kv, &e);
    if (!es.ok()) {
      return Status::InvalidArgument(
          StrCat(path, ":", line_no, ": ", es.message()));
    }
    // A recorder stamps events with the simulated clock, so times start at
    // 0 and never decrease. SummarizeTrace subtracts and sums them, which
    // cannot overflow on such a stream.
    if (e.time < 0 ||
        (!out->events.empty() && e.time < out->events.back().time)) {
      return Status::InvalidArgument(StrCat(path, ":", line_no, ": time ",
                                            e.time, " out of order"));
    }
    out->events.push_back(e);
  }
  if (!header_seen) {
    return Status::InvalidArgument(StrCat(path, ": empty trace"));
  }
  return Status::Ok();
}

}  // namespace wtpgsched
