#include "trace/trace_recorder.h"

#include <algorithm>

#include "metrics/counters.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

// Enable() reserves at most this many events: the default capacity.
constexpr size_t kMaxReserve = size_t{1} << 20;

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrive:
      return "arrive";
    case TraceEventType::kAdmit:
      return "admit";
    case TraceEventType::kAdmissionDelayed:
      return "admission_delayed";
    case TraceEventType::kAdmissionRejected:
      return "admission_rejected";
    case TraceEventType::kLockRequest:
      return "lock_request";
    case TraceEventType::kLockBlocked:
      return "lock_blocked";
    case TraceEventType::kLockDelayed:
      return "lock_delayed";
    case TraceEventType::kLockGrant:
      return "lock_grant";
    case TraceEventType::kLockRelease:
      return "lock_release";
    case TraceEventType::kStepDispatch:
      return "step_dispatch";
    case TraceEventType::kScanStart:
      return "scan_start";
    case TraceEventType::kScanEnd:
      return "scan_end";
    case TraceEventType::kStepReturn:
      return "step_return";
    case TraceEventType::kDataAccess:
      return "data_access";
    case TraceEventType::kCommit:
      return "commit";
    case TraceEventType::kAbort:
      return "abort";
    case TraceEventType::kRestartScheduled:
      return "restart_scheduled";
    case TraceEventType::kLowEval:
      return "low_eval";
    case TraceEventType::kLowDeadlock:
      return "low_deadlock";
    case TraceEventType::kGowChainTest:
      return "gow_chain_test";
    case TraceEventType::kGowOrientation:
      return "gow_orientation";
    case TraceEventType::kC2plPredict:
      return "c2pl_predict";
    case TraceEventType::kOptValidation:
      return "opt_validation";
    case TraceEventType::kDpnCrash:
      return "dpn_crash";
    case TraceEventType::kDpnRepair:
      return "dpn_repair";
    case TraceEventType::kDpnSlowdown:
      return "dpn_slowdown";
    case TraceEventType::kFaultBackoff:
      return "fault_backoff";
    case TraceEventType::kNumTypes:
      break;
  }
  return "?";
}

void TraceRecorder::Enable(size_t capacity) {
  WTPG_CHECK_GT(capacity, 0u);
  WTPG_CHECK(events_.empty()) << "Enable() after events were recorded";
  enabled_ = true;
  capacity_ = capacity;
  events_.reserve(std::min(capacity, kMaxReserve));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

uint64_t TraceRecorder::total_recorded() const {
  uint64_t total = 0;
  for (uint64_t c : type_counts_) total += c;
  return total;
}

void TraceRecorder::ExportCounters(CounterRegistry* registry) const {
  for (size_t i = 0; i < static_cast<size_t>(TraceEventType::kNumTypes);
       ++i) {
    if (type_counts_[i] == 0) continue;
    registry->Counter(
        StrCat("trace.", TraceEventTypeName(static_cast<TraceEventType>(i))))
        += type_counts_[i];
  }
  if (dropped_ > 0) registry->Counter("trace.dropped") += dropped_;
}

}  // namespace wtpgsched
