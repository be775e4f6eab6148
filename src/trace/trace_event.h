#ifndef WTPG_SCHED_TRACE_TRACE_EVENT_H_
#define WTPG_SCHED_TRACE_TRACE_EVENT_H_

#include <cstdint>

#include "model/lock_mode.h"
#include "model/types.h"
#include "sim/time.h"

namespace wtpgsched {

// Typed trace events covering the full transaction lifecycle and the
// scheduler-internal decisions behind it. One TraceEvent is a fixed-size
// record so the recorder can ring-buffer millions of them without
// allocation; which fields are meaningful depends on the type (see
// TraceEventFields in trace_export.cc and DESIGN.md "Observability").
//
// The JSONL schema version (kTraceSchemaVersion) must be bumped whenever a
// type is added/renamed or a field changes meaning.
enum class TraceEventType : uint8_t {
  // --- Transaction lifecycle (emitted by the machine) ---
  kArrive,             // txn — transaction entered the system.
  kAdmit,              // txn — scheduler admitted it (state -> active).
  kAdmissionDelayed,   // txn — admission refused for now; parked.
  kAdmissionRejected,  // txn — rejected outright (GOW chain test).
  kLockRequest,        // txn, file, step — lock decision submitted to CN.
  kLockBlocked,        // txn, file — conflicting holder; parked on granule.
  kLockDelayed,        // txn, file — grantable but refused by the strategy.
  kLockGrant,          // txn, file, mode — lock recorded in the table.
  kLockRelease,        // txn, file — lock released (commit/abort).
  kStepDispatch,       // txn, step, file — CN sends the txn to the DPNs.
  kScanStart,          // txn, node, file, value=objects — cohort submitted.
  kScanEnd,            // txn, node, file — cohort finished scanning.
  kStepReturn,         // txn, step — all cohorts joined; txn back at CN.
  kDataAccess,         // txn, inc, file, mode — logical database access.
  kCommit,             // txn, inc — commit processing finished.
  kAbort,              // txn, inc, arg=AbortReason — incarnation aborted.
  kRestartScheduled,   // txn — restart timer armed after an abort.
  // --- Scheduler internals ---
  kLowEval,        // txn, file, value=E(); arg=|C(q)| for the requester's
                   // evaluation, -1 when this is a competitor's E(p).
  kLowDeadlock,    // txn, file — E(q) = infinity; grant would deadlock.
  kGowChainTest,   // txn, arg=1 accepted / 0 rejected, value=|conflict set|.
  kGowOrientation, // txn, file, arg=GowOutcome, value=base critical path,
                   // value2=critical path with the grant's orientations.
  kC2plPredict,    // txn, file, arg=1 cycle predicted (delay) / 0 clear.
  kOptValidation,  // txn, inc, arg=1 pass / 0 fail.
  // --- Fault lifecycle (emitted by the machine's fault sources) ---
  kDpnCrash,       // node — DPN failed; resident cohorts die.
  kDpnRepair,      // node — DPN back up, placement intact.
  kDpnSlowdown,    // node, arg=1 window opens / 0 closes, value=factor.
  kFaultBackoff,   // txn, inc, value=backoff delay (s) before restart.
  kNumTypes,       // Sentinel; keep last.
};

// Payload of TraceEvent::arg for kAbort.
enum AbortReason : int32_t {
  kAbortValidationFailure = 0,  // OPT certification failed at commit.
  kAbortDeadlockVictim = 1,     // 2PL deadlock victim.
  kAbortNodeCrash = 2,          // A DPN holding one of its cohorts crashed.
  kAbortInjected = 3,           // Spontaneous abort injection.
};

// Payload of TraceEvent::arg for kGowOrientation.
enum GowOutcome : int32_t {
  kGowGrantTrivial = 0,     // No pending conflicters; nothing determined.
  kGowDelayOriented = 1,    // An order u -> txn already exists; must wait.
  kGowGrantOptimal = 2,     // Grant consistent with the optimized order W.
  kGowDelaySuboptimal = 3,  // Grant would lengthen the chain's critical path.
};

const char* TraceEventTypeName(TraceEventType type);

// One fixed-size trace record. Unused fields keep their defaults; `time` is
// simulated microseconds (SimTime).
struct TraceEvent {
  SimTime time = 0;
  TraceEventType type = TraceEventType::kArrive;
  TxnId txn = kInvalidTxn;
  int32_t incarnation = 0;
  FileId file = kInvalidFile;
  NodeId node = kInvalidNode;
  int32_t step = -1;
  LockMode mode = LockMode::kShared;
  int32_t arg = 0;
  double value = 0.0;
  double value2 = 0.0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TRACE_TRACE_EVENT_H_
