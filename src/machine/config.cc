#include "machine/config.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace wtpgsched {

namespace {

// Display name and CLI / JSON spelling of every scheduler kind.
struct SchedulerNames {
  SchedulerKind kind;
  const char* name;
  const char* flag;
};
constexpr SchedulerNames kSchedulerNames[] = {
    {SchedulerKind::kNodc, "NODC", "nodc"},
    {SchedulerKind::kAsl, "ASL", "asl"},
    {SchedulerKind::kC2pl, "C2PL", "c2pl"},
    {SchedulerKind::kOpt, "OPT", "opt"},
    {SchedulerKind::kGow, "GOW", "gow"},
    {SchedulerKind::kLow, "LOW", "low"},
    {SchedulerKind::kLowLb, "LOW-LB", "low-lb"},
    {SchedulerKind::kTwoPl, "2PL", "2pl"}};

const SchedulerNames* NamesOf(SchedulerKind kind) {
  for (const SchedulerNames& names : kSchedulerNames) {
    if (names.kind == kind) return &names;
  }
  return nullptr;
}

// True when a field reference of type T refers to a U.
template <typename T, typename U>
constexpr bool kIs = std::is_same_v<std::remove_cvref_t<T>, U>;

}  // namespace

const char* SchedulerKindName(SchedulerKind kind) {
  const SchedulerNames* names = NamesOf(kind);
  return names == nullptr ? "?" : names->name;
}

const char* SchedulerKindFlagName(SchedulerKind kind) {
  const SchedulerNames* names = NamesOf(kind);
  return names == nullptr ? "?" : names->flag;
}

bool ParseSchedulerKind(const std::string& name, SchedulerKind* out) {
  for (const SchedulerNames& names : kSchedulerNames) {
    if (name == names.flag) {
      *out = names.kind;
      return true;
    }
  }
  return false;
}

Status SimConfig::Validate() const {
  if (machine.num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be > 0");
  }
  if (machine.num_files <= 0) {
    return Status::InvalidArgument("num_files must be > 0");
  }
  if (machine.dd < 1 || machine.dd > machine.num_nodes) {
    return Status::InvalidArgument(
        StrCat("dd must be in [1, num_nodes]; got ", machine.dd));
  }
  if (machine.mpl < 1) return Status::InvalidArgument("mpl must be >= 1");
  if (workload.arrival_rate_tps <= 0.0) {
    return Status::InvalidArgument("arrival_rate_tps must be > 0");
  }
  // Every *_ms field reaches the clock through MsToTime. NaN passes every
  // ordered comparison below, and infinity overflows the arithmetic the
  // other doubles feed. The walk allocates nothing: Machine's constructor
  // runs it.
  std::string_view bad;
  bool bad_ms = false;
  ForEachField(*this, [&](std::string_view, std::string_view key,
                          std::string_view, const auto& field) {
    if constexpr (kIs<decltype(field), double>) {
      bad_ms = key.ends_with("_ms");
      if (bad_ms ? !DurationMsInRange(field) : !std::isfinite(field)) {
        bad = key;
        return false;
      }
    }
    return true;
  });
  if (!bad.empty()) {
    return Status::InvalidArgument(
        bad_ms ? StrCat(bad, " must be finite and at most ", kMaxDurationMs,
                        " ms in magnitude")
               : StrCat(bad, " must be finite"));
  }
  if (costs.obj_time_ms <= 0.0) {
    return Status::InvalidArgument("obj_time_ms must be > 0");
  }
  for (double cost :
       {costs.msg_time_ms, costs.sot_time_ms, costs.cot_time_ms,
        costs.dd_time_ms, costs.kwtpg_time_ms, costs.chain_time_ms,
        costs.top_time_ms}) {
    if (cost < 0.0) return Status::InvalidArgument("costs must be >= 0");
  }
  if (low_k < 0) return Status::InvalidArgument("low_k must be >= 0");
  if (workload.error_sigma < 0.0) {
    return Status::InvalidArgument("error_sigma must be >= 0");
  }
  if (run.horizon_ms <= 0.0) {
    return Status::InvalidArgument("horizon_ms must be > 0");
  }
  if (run.warmup_ms < 0.0 || run.warmup_ms >= run.horizon_ms) {
    return Status::InvalidArgument("warmup_ms must be in [0, horizon_ms)");
  }
  if (run.retry_fallback_ms < 0.0) {
    return Status::InvalidArgument("retry_fallback_ms must be >= 0");
  }
  if (run.retry_fallback_ms > 0.0 && run.retry_fallback_ms < kTickMs) {
    return Status::InvalidArgument(
        "retry_fallback_ms must be 0 or at least the 0.001 ms clock tick");
  }
  if (machine.quantum_objects < 0.0) {
    return Status::InvalidArgument("quantum_objects must be >= 0");
  }
  if (run.telemetry_sample_ms < 0.0) {
    return Status::InvalidArgument("telemetry_sample_ms must be >= 0");
  }
  if (run.telemetry_sample_ms > 0.0 && run.telemetry_sample_ms < kTickMs) {
    return Status::InvalidArgument(
        "telemetry_sample_ms must be 0 or at least the 0.001 ms clock tick");
  }
  if (run.telemetry_sample_ms > 0.0 && run.telemetry_capacity == 0) {
    return Status::InvalidArgument(
        "telemetry_capacity must be > 0 when telemetry is enabled");
  }
  if (run.restart_delay_ms < 0.0) {
    return Status::InvalidArgument("restart_delay_ms must be >= 0");
  }
  if (run.admission_retry_limit < 0) {
    return Status::InvalidArgument("admission_retry_limit must be >= 0");
  }
  if (run.trace_enabled && run.trace_capacity == 0) {
    return Status::InvalidArgument(
        "trace_capacity must be > 0 when tracing is enabled");
  }
  if (machine.batch_mpl < 0) {
    return Status::InvalidArgument("batch_mpl must be >= 0");
  }
  if (workload.zipf_theta < 0.0) {
    return Status::InvalidArgument("zipf_theta must be >= 0");
  }
  if (run.tail_sketch && !run.tail_metrics) {
    return Status::InvalidArgument(
        "tail_sketch requires tail_metrics (the sketch only feeds the tail "
        "percentiles)");
  }
  for (double v :
       {fault.dpn_mttf_ms, fault.straggler_mtbf_ms, fault.abort_rate_per_s}) {
    if (v < 0.0) {
      return Status::InvalidArgument("fault rates must be >= 0");
    }
  }
  // Each fault source steps forward by draws around these means until the
  // horizon: below the clock tick most draws round to zero ticks, and the
  // source fires again and again at one instant.
  if (fault.dpn_mttf_ms > 0.0) {
    if (fault.dpn_mttf_ms < kTickMs) {
      return Status::InvalidArgument(
          "dpn_mttf_ms must be 0 or at least the 0.001 ms clock tick");
    }
    if (fault.dpn_mttr_ms < kTickMs) {
      return Status::InvalidArgument(
          "dpn_mttr_ms must be at least the 0.001 ms clock tick when "
          "crashes are enabled");
    }
  }
  if (fault.straggler_mtbf_ms > 0.0) {
    if (fault.straggler_mtbf_ms < kTickMs) {
      return Status::InvalidArgument(
          "straggler_mtbf_ms must be 0 or at least the 0.001 ms clock tick");
    }
    if (fault.straggler_duration_ms < kTickMs) {
      return Status::InvalidArgument(
          "straggler_duration_ms must be at least the 0.001 ms clock tick "
          "when stragglers are enabled");
    }
    if (fault.straggler_factor < 1.0) {
      return Status::InvalidArgument("straggler_factor must be >= 1");
    }
  }
  if (fault.abort_rate_per_s > 1e6) {
    return Status::InvalidArgument(
        "abort_rate_per_s must be <= 1e6 (a mean gap of one clock tick)");
  }
  if (fault.backoff_base_ms < 0.0 ||
      fault.backoff_max_ms < fault.backoff_base_ms) {
    return Status::InvalidArgument(
        "backoff_base_ms must be >= 0 and <= backoff_max_ms");
  }
  if (fault.backoff_jitter < 0.0 || fault.backoff_jitter >= 1.0) {
    return Status::InvalidArgument("backoff_jitter must be in [0, 1)");
  }
  return Status::Ok();
}

namespace {

// The shortest text that reads back as exactly `v`; null for NaN and ±inf,
// which JSON cannot spell.
std::string ShortestJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

Status FieldError(std::string_view section, std::string_view key,
                  const std::string& what) {
  return Status::InvalidArgument(StrCat("config field ", section,
                                        section.empty() ? "" : ".", key, ": ",
                                        what));
}

// Reads `v` into *out when its JSON type fits T. An integer must be a whole
// number that T can hold; the range is checked before the cast, because
// casting an out-of-range double is undefined behaviour.
template <typename T>
Status ReadValue(std::string_view section, std::string_view key,
                 const JsonValue& v, T* out) {
  using Type = JsonValue::Type;
  if constexpr (std::is_same_v<T, bool>) {
    if (v.type() != Type::kBool) {
      return FieldError(section, key, "expected a boolean");
    }
    *out = v.bool_value();
  } else if constexpr (std::is_same_v<T, double>) {
    if (v.type() != Type::kNumber) {
      return FieldError(section, key, "expected a number");
    }
    *out = v.number_value();
  } else if constexpr (std::is_same_v<T, SchedulerKind>) {
    if (v.type() != Type::kString ||
        !ParseSchedulerKind(v.string_value(), out)) {
      return FieldError(section, key,
                        "expected a scheduler name (nodc, asl, c2pl, opt, "
                        "gow, low, low-lb, 2pl)");
    }
  } else {
    constexpr T kLo = std::numeric_limits<T>::min();
    constexpr T kHi = std::numeric_limits<T>::max();
    // kLo and kHi + 1 are zero or powers of two, so both bounds are exact
    // doubles.
    const double lo = static_cast<double>(kLo);
    const double hi_exclusive = 2.0 * static_cast<double>(kHi / 2 + 1);
    const bool is_number = v.type() == Type::kNumber;
    const double x = is_number ? v.number_value() : 0.0;
    if (!is_number || !(x >= lo && x < hi_exclusive) || x != std::floor(x)) {
      return FieldError(section, key, StrCat("expected an integer in [", kLo,
                                             ", ", kHi, "]"));
    }
    *out = static_cast<T>(x);
  }
  return Status::Ok();
}

// Reads `v` into the field the list names `section`.`key`.
Status ReadField(SimConfig* config, std::string_view section,
                 std::string_view key, const JsonValue& v) {
  Status status = Status::Ok();
  const bool unknown = ForEachField(
      *config, [&](std::string_view s, std::string_view k, std::string_view,
                   auto& field) {
        if (s != section || k != key) return true;
        status = ReadValue(section, key, v, &field);
        return false;
      });
  return unknown ? FieldError(section, key, "unknown key") : status;
}

// True when `key` names a section of the list.
bool IsSection(const SimConfig& config, std::string_view key) {
  return !key.empty() &&
         !ForEachField(config, [&](std::string_view section, auto&&...) {
           return section != key;
         });
}

}  // namespace

std::string SimConfig::ToJson() const {
  // The JSON spells an unlimited mpl 0, as the --mpl flag does, so the
  // file stays readable and platform-independent.
  SimConfig c = *this;
  if (c.machine.mpl == std::numeric_limits<int>::max()) c.machine.mpl = 0;
  JsonWriter root;
  JsonWriter section;
  std::string_view open;  // The section `section` collects.
  const auto close = [&] {
    if (!open.empty()) root.AddRaw(std::string(open), section.ToString());
    section = JsonWriter();
  };
  ForEachField(c, [&](std::string_view name, std::string_view key,
                      std::string_view, const auto& field) {
    if (name != open) {
      close();
      open = name;
    }
    JsonWriter& w = name.empty() ? root : section;
    const std::string k(key);
    if constexpr (kIs<decltype(field), double>) {
      w.AddRaw(k, ShortestJson(field));
    } else if constexpr (kIs<decltype(field), SchedulerKind>) {
      w.Add(k, SchedulerKindFlagName(field));
    } else {
      w.Add(k, field);
    }
    return true;
  });
  close();
  return root.ToString();
}

StatusOr<SimConfig> SimConfig::FromJson(const std::string& json) {
  StatusOr<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("config must be a JSON object");
  }
  SimConfig config;
  for (const auto& [key, v] : root.items()) {
    Status s = Status::Ok();
    if (!IsSection(config, key)) {
      s = ReadField(&config, "", key, v);
    } else if (!v.is_object()) {
      s = FieldError("", key, "expected an object");
    } else {
      for (const auto& [field, value] : v.items()) {
        s = ReadField(&config, key, field, value);
        if (!s.ok()) break;
      }
    }
    if (!s.ok()) return s;
  }
  if (config.machine.mpl == 0) {  // The JSON's "unlimited"; see ToJson.
    config.machine.mpl = std::numeric_limits<int>::max();
  }
  Status valid = config.Validate();
  if (!valid.ok()) return valid;
  return config;
}

StatusOr<SimConfig> SimConfig::FromJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument(StrCat("cannot read config file ", path));
  }
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<SimConfig> config = FromJson(text.str());
  if (!config.ok()) {
    return Status::InvalidArgument(
        StrCat(path, ": ", config.status().message()));
  }
  return config;
}

}  // namespace wtpgsched
