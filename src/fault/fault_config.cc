#include "fault/fault_config.h"

#include <utility>

#include "sim/time.h"
#include "util/string_util.h"

namespace wtpgsched {

Status FaultConfig::Validate() const {
  // Every *_ms field reaches the clock through MsToTime.
  const std::pair<const char*, double> durations[] = {
      {"dpn_mttf_ms", dpn_mttf_ms},
      {"dpn_mttr_ms", dpn_mttr_ms},
      {"straggler_mtbf_ms", straggler_mtbf_ms},
      {"straggler_duration_ms", straggler_duration_ms},
      {"backoff_base_ms", backoff_base_ms},
      {"backoff_max_ms", backoff_max_ms}};
  for (const auto& [name, ms] : durations) {
    if (!DurationMsInRange(ms)) {
      return Status::InvalidArgument(
          StrCat(name, " must be finite and at most ", kMaxDurationMs,
                 " ms in magnitude"));
    }
  }
  for (double v : {dpn_mttf_ms, straggler_mtbf_ms, abort_rate_per_s}) {
    if (v < 0.0) {
      return Status::InvalidArgument("fault rates must be >= 0");
    }
  }
  // FaultPlan::Compile steps each schedule forward by draws around these
  // means until the horizon: a mean below the clock tick rounds to zero
  // and the schedule grows without end.
  if (dpn_mttf_ms > 0.0) {
    if (dpn_mttf_ms < kTickMs) {
      return Status::InvalidArgument(
          "dpn_mttf_ms must be 0 or at least the 0.001 ms clock tick");
    }
    if (dpn_mttr_ms < kTickMs) {
      return Status::InvalidArgument(
          "dpn_mttr_ms must be at least the 0.001 ms clock tick when "
          "crashes are enabled");
    }
  }
  if (straggler_mtbf_ms > 0.0) {
    if (straggler_mtbf_ms < kTickMs) {
      return Status::InvalidArgument(
          "straggler_mtbf_ms must be 0 or at least the 0.001 ms clock tick");
    }
    if (straggler_duration_ms < kTickMs) {
      return Status::InvalidArgument(
          "straggler_duration_ms must be at least the 0.001 ms clock tick "
          "when stragglers are enabled");
    }
    if (straggler_factor < 1.0) {
      return Status::InvalidArgument("straggler_factor must be >= 1");
    }
  }
  if (abort_rate_per_s > 1e6) {
    return Status::InvalidArgument(
        "abort_rate_per_s must be <= 1e6 (a mean gap of one clock tick)");
  }
  if (backoff_base_ms < 0.0 || backoff_max_ms < backoff_base_ms) {
    return Status::InvalidArgument(
        "backoff_base_ms must be >= 0 and <= backoff_max_ms");
  }
  if (backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    return Status::InvalidArgument("backoff_jitter must be in [0, 1)");
  }
  return Status::Ok();
}

}  // namespace wtpgsched
