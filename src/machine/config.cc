#include "machine/config.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace wtpgsched {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNodc:
      return "NODC";
    case SchedulerKind::kAsl:
      return "ASL";
    case SchedulerKind::kC2pl:
      return "C2PL";
    case SchedulerKind::kOpt:
      return "OPT";
    case SchedulerKind::kGow:
      return "GOW";
    case SchedulerKind::kLow:
      return "LOW";
    case SchedulerKind::kLowLb:
      return "LOW-LB";
    case SchedulerKind::kTwoPl:
      return "2PL";
  }
  return "?";
}

const char* SchedulerKindFlagName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNodc:
      return "nodc";
    case SchedulerKind::kAsl:
      return "asl";
    case SchedulerKind::kC2pl:
      return "c2pl";
    case SchedulerKind::kOpt:
      return "opt";
    case SchedulerKind::kGow:
      return "gow";
    case SchedulerKind::kLow:
      return "low";
    case SchedulerKind::kLowLb:
      return "low-lb";
    case SchedulerKind::kTwoPl:
      return "2pl";
  }
  return "?";
}

bool ParseSchedulerKind(const std::string& name, SchedulerKind* out) {
  for (SchedulerKind kind :
       {SchedulerKind::kNodc, SchedulerKind::kAsl, SchedulerKind::kC2pl,
        SchedulerKind::kOpt, SchedulerKind::kGow, SchedulerKind::kLow,
        SchedulerKind::kLowLb, SchedulerKind::kTwoPl}) {
    if (name == SchedulerKindFlagName(kind)) {
      *out = kind;
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
  // Every *_ms field reaches the clock through MsToTime.
  const std::pair<const char*, double> durations[] = {
      {"obj_time_ms", costs.obj_time_ms},
      {"msg_time_ms", costs.msg_time_ms},
      {"sot_time_ms", costs.sot_time_ms},
      {"cot_time_ms", costs.cot_time_ms},
      {"dd_time_ms", costs.dd_time_ms},
      {"kwtpg_time_ms", costs.kwtpg_time_ms},
      {"chain_time_ms", costs.chain_time_ms},
      {"top_time_ms", costs.top_time_ms},
      {"horizon_ms", run.horizon_ms},
      {"warmup_ms", run.warmup_ms},
      {"retry_fallback_ms", run.retry_fallback_ms},
      {"restart_delay_ms", run.restart_delay_ms},
      {"telemetry_sample_ms", run.telemetry_sample_ms}};
  for (const auto& [name, ms] : durations) {
    if (!DurationMsInRange(ms)) {
      return Status::InvalidArgument(
          StrCat(name, " must be finite and at most ", kMaxDurationMs,
                 " ms in magnitude"));
    }
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
  return fault.Validate();
}

namespace {

// `mpl` is "unlimited" at INT_MAX; the JSON artifact (like the --mpl flag)
// spells that 0 so the file stays readable and platform-independent.
int64_t MplToJson(int mpl) {
  return mpl == std::numeric_limits<int>::max() ? 0 : mpl;
}

std::string MachineToJson(const MachineSection& m) {
  JsonWriter w;
  w.Add("num_nodes", m.num_nodes)
      .Add("num_files", m.num_files)
      .Add("dd", m.dd)
      .Add("mpl", MplToJson(m.mpl))
      .Add("quantum_objects", m.quantum_objects)
      .Add("batch_mpl", m.batch_mpl);
  return w.ToString();
}

std::string CostsToJson(const CostSection& c) {
  JsonWriter w;
  w.Add("obj_time_ms", c.obj_time_ms)
      .Add("msg_time_ms", c.msg_time_ms)
      .Add("sot_time_ms", c.sot_time_ms)
      .Add("cot_time_ms", c.cot_time_ms)
      .Add("dd_time_ms", c.dd_time_ms)
      .Add("kwtpg_time_ms", c.kwtpg_time_ms)
      .Add("chain_time_ms", c.chain_time_ms)
      .Add("top_time_ms", c.top_time_ms);
  return w.ToString();
}

std::string WorkloadToJson(const WorkloadSection& wl) {
  JsonWriter w;
  w.Add("arrival_rate_tps", wl.arrival_rate_tps)
      .Add("error_sigma", wl.error_sigma)
      .Add("max_arrivals", wl.max_arrivals)
      .Add("zipf_theta", wl.zipf_theta);
  return w.ToString();
}

std::string RunToJson(const RunSection& r) {
  JsonWriter w;
  w.Add("horizon_ms", r.horizon_ms)
      .Add("warmup_ms", r.warmup_ms)
      .Add("retry_fallback_ms", r.retry_fallback_ms)
      .Add("admission_retry_limit", r.admission_retry_limit)
      .Add("restart_delay_ms", r.restart_delay_ms)
      .Add("telemetry_sample_ms", r.telemetry_sample_ms)
      .Add("telemetry_capacity", r.telemetry_capacity)
      .Add("trace_enabled", r.trace_enabled)
      .Add("trace_capacity", r.trace_capacity)
      .Add("tail_metrics", r.tail_metrics)
      .Add("tail_sketch", r.tail_sketch)
      .Add("seed", r.seed);
  return w.ToString();
}

std::string FaultToJson(const FaultConfig& f) {
  JsonWriter w;
  w.Add("dpn_mttf_ms", f.dpn_mttf_ms)
      .Add("dpn_mttr_ms", f.dpn_mttr_ms)
      .Add("straggler_mtbf_ms", f.straggler_mtbf_ms)
      .Add("straggler_duration_ms", f.straggler_duration_ms)
      .Add("straggler_factor", f.straggler_factor)
      .Add("abort_rate_per_s", f.abort_rate_per_s)
      .Add("backoff_base_ms", f.backoff_base_ms)
      .Add("backoff_max_ms", f.backoff_max_ms)
      .Add("backoff_jitter", f.backoff_jitter);
  return w.ToString();
}

// --- Typed field extraction for FromJson ---

Status FieldError(const std::string& section, const std::string& key,
                  const std::string& what) {
  return Status::InvalidArgument(
      StrCat("config field ", section.empty() ? "" : StrCat(section, "."), key,
             ": ", what));
}

Status ReadDouble(const std::string& section, const std::string& key,
                  const JsonValue& v, double* out) {
  if (v.type() != JsonValue::Type::kNumber) {
    return FieldError(section, key, "expected a number");
  }
  *out = v.number_value();
  return Status::Ok();
}

// Reads a whole number that T can hold. The range is checked before the
// cast: casting an out-of-range double is undefined behaviour.
template <typename T>
Status ReadInt(const std::string& section, const std::string& key,
               const JsonValue& v, T* out) {
  constexpr T kLo = std::numeric_limits<T>::min();
  constexpr T kHi = std::numeric_limits<T>::max();
  // kLo and kHi + 1 are zero or powers of two, so both bounds are exact
  // doubles.
  const double lo = static_cast<double>(kLo);
  const double hi_exclusive = 2.0 * static_cast<double>(kHi / 2 + 1);
  const bool is_number = v.type() == JsonValue::Type::kNumber;
  const double x = is_number ? v.number_value() : 0.0;
  if (!is_number || !(x >= lo && x < hi_exclusive) || x != std::floor(x)) {
    return FieldError(section, key,
                      StrCat("expected an integer in [", kLo, ", ", kHi, "]"));
  }
  *out = static_cast<T>(x);
  return Status::Ok();
}

Status ReadBool(const std::string& section, const std::string& key,
                const JsonValue& v, bool* out) {
  if (v.type() != JsonValue::Type::kBool) {
    return FieldError(section, key, "expected a boolean");
  }
  *out = v.bool_value();
  return Status::Ok();
}

Status ParseMachine(const JsonValue& obj, MachineSection* m) {
  for (const auto& [key, v] : obj.items()) {
    Status s = Status::Ok();
    if (key == "num_nodes") s = ReadInt("machine", key, v, &m->num_nodes);
    else if (key == "num_files") s = ReadInt("machine", key, v, &m->num_files);
    else if (key == "dd") s = ReadInt("machine", key, v, &m->dd);
    else if (key == "mpl") {
      s = ReadInt("machine", key, v, &m->mpl);
      if (s.ok() && m->mpl == 0) m->mpl = std::numeric_limits<int>::max();
    } else if (key == "quantum_objects") {
      s = ReadDouble("machine", key, v, &m->quantum_objects);
    } else if (key == "batch_mpl") {
      s = ReadInt("machine", key, v, &m->batch_mpl);
    } else {
      s = FieldError("machine", key, "unknown key");
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ParseCosts(const JsonValue& obj, CostSection* c) {
  for (const auto& [key, v] : obj.items()) {
    double* field = nullptr;
    if (key == "obj_time_ms") field = &c->obj_time_ms;
    else if (key == "msg_time_ms") field = &c->msg_time_ms;
    else if (key == "sot_time_ms") field = &c->sot_time_ms;
    else if (key == "cot_time_ms") field = &c->cot_time_ms;
    else if (key == "dd_time_ms") field = &c->dd_time_ms;
    else if (key == "kwtpg_time_ms") field = &c->kwtpg_time_ms;
    else if (key == "chain_time_ms") field = &c->chain_time_ms;
    else if (key == "top_time_ms") field = &c->top_time_ms;
    else return FieldError("costs", key, "unknown key");
    Status s = ReadDouble("costs", key, v, field);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ParseWorkload(const JsonValue& obj, WorkloadSection* wl) {
  for (const auto& [key, v] : obj.items()) {
    Status s = Status::Ok();
    if (key == "arrival_rate_tps") {
      s = ReadDouble("workload", key, v, &wl->arrival_rate_tps);
    } else if (key == "error_sigma") {
      s = ReadDouble("workload", key, v, &wl->error_sigma);
    } else if (key == "max_arrivals") {
      s = ReadInt("workload", key, v, &wl->max_arrivals);
    } else if (key == "zipf_theta") {
      s = ReadDouble("workload", key, v, &wl->zipf_theta);
    } else {
      s = FieldError("workload", key, "unknown key");
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ParseRun(const JsonValue& obj, RunSection* r) {
  for (const auto& [key, v] : obj.items()) {
    Status s = Status::Ok();
    if (key == "horizon_ms") s = ReadDouble("run", key, v, &r->horizon_ms);
    else if (key == "warmup_ms") s = ReadDouble("run", key, v, &r->warmup_ms);
    else if (key == "retry_fallback_ms") {
      s = ReadDouble("run", key, v, &r->retry_fallback_ms);
    } else if (key == "admission_retry_limit") {
      s = ReadInt("run", key, v, &r->admission_retry_limit);
    } else if (key == "restart_delay_ms") {
      s = ReadDouble("run", key, v, &r->restart_delay_ms);
    } else if (key == "telemetry_sample_ms") {
      s = ReadDouble("run", key, v, &r->telemetry_sample_ms);
    } else if (key == "telemetry_capacity") {
      s = ReadInt("run", key, v, &r->telemetry_capacity);
    } else if (key == "trace_enabled") {
      s = ReadBool("run", key, v, &r->trace_enabled);
    } else if (key == "trace_capacity") {
      s = ReadInt("run", key, v, &r->trace_capacity);
    } else if (key == "tail_metrics") {
      s = ReadBool("run", key, v, &r->tail_metrics);
    } else if (key == "tail_sketch") {
      s = ReadBool("run", key, v, &r->tail_sketch);
    } else if (key == "seed") {
      s = ReadInt("run", key, v, &r->seed);
    } else {
      s = FieldError("run", key, "unknown key");
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ParseFault(const JsonValue& obj, FaultConfig* f) {
  for (const auto& [key, v] : obj.items()) {
    double* field = nullptr;
    if (key == "dpn_mttf_ms") field = &f->dpn_mttf_ms;
    else if (key == "dpn_mttr_ms") field = &f->dpn_mttr_ms;
    else if (key == "straggler_mtbf_ms") field = &f->straggler_mtbf_ms;
    else if (key == "straggler_duration_ms") {
      field = &f->straggler_duration_ms;
    } else if (key == "straggler_factor") field = &f->straggler_factor;
    else if (key == "abort_rate_per_s") field = &f->abort_rate_per_s;
    else if (key == "backoff_base_ms") field = &f->backoff_base_ms;
    else if (key == "backoff_max_ms") field = &f->backoff_max_ms;
    else if (key == "backoff_jitter") field = &f->backoff_jitter;
    else return FieldError("fault", key, "unknown key");
    Status s = ReadDouble("fault", key, v, field);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

std::string SimConfig::ToJson() const {
  JsonWriter w;
  w.AddRaw("machine", MachineToJson(machine))
      .AddRaw("costs", CostsToJson(costs))
      .AddRaw("workload", WorkloadToJson(workload))
      .AddRaw("run", RunToJson(run))
      .AddRaw("fault", FaultToJson(fault))
      .Add("scheduler", SchedulerKindFlagName(scheduler))
      .Add("low_k", low_k)
      .Add("low_charge_per_eval", low_charge_per_eval)
      .Add("low_lb_weight", low_lb_weight)
      .Add("opt_validate_writes", opt_validate_writes);
  return w.ToString();
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
    if (key == "machine" || key == "costs" || key == "workload" ||
        key == "run" || key == "fault") {
      if (!v.is_object()) {
        s = FieldError("", key, "expected an object");
      } else if (key == "machine") {
        s = ParseMachine(v, &config.machine);
      } else if (key == "costs") {
        s = ParseCosts(v, &config.costs);
      } else if (key == "workload") {
        s = ParseWorkload(v, &config.workload);
      } else if (key == "run") {
        s = ParseRun(v, &config.run);
      } else {
        s = ParseFault(v, &config.fault);
      }
    } else if (key == "scheduler") {
      if (v.type() != JsonValue::Type::kString ||
          !ParseSchedulerKind(v.string_value(), &config.scheduler)) {
        s = FieldError("", key, "expected a scheduler name (nodc, asl, c2pl, "
                                "opt, gow, low, low-lb, 2pl)");
      }
    } else if (key == "low_k") {
      s = ReadInt("", key, v, &config.low_k);
    } else if (key == "low_charge_per_eval") {
      s = ReadBool("", key, v, &config.low_charge_per_eval);
    } else if (key == "low_lb_weight") {
      s = ReadDouble("", key, v, &config.low_lb_weight);
    } else if (key == "opt_validate_writes") {
      s = ReadBool("", key, v, &config.opt_validate_writes);
    } else {
      s = FieldError("", key, "unknown key");
    }
    if (!s.ok()) return s;
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
