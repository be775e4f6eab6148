#ifndef WTPG_SCHED_MODEL_TRANSACTION_H_
#define WTPG_SCHED_MODEL_TRANSACTION_H_

#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "model/lock_mode.h"
#include "model/types.h"
#include "sim/time.h"

namespace wtpgsched {

// One step of a batch transaction: a file-scanning read or write (paper
// Section 2, model 1/2).
struct StepSpec {
  FileId file = kInvalidFile;
  // Semantic access: kShared for a reading step, kExclusive for a writing
  // step.
  LockMode access = LockMode::kShared;
  // Lock mode requested when this step first locks `file`. Patterns may
  // request X at a reading step to cover a later write of the same file
  // (Experiment 1 requests X-locks at its first two steps).
  LockMode request_mode = LockMode::kShared;
  // True I/O demand in objects, at DD = 1 (the machine splits it across DD
  // cohorts at execution time).
  double actual_cost = 0.0;
  // Declared I/O demand in objects as announced to the scheduler, already
  // adjusted for declustering (C * (1 + x) / DD); differs from actual under
  // the Experiment 3 error model.
  double declared_cost = 0.0;
};

// A batch transaction: a sequential list of steps plus the access
// declaration derived from them. Transactions are created by the workload
// generator and owned by the machine; schedulers see them by reference.
class Transaction {
 public:
  enum class State {
    kCreated,        // Arrived, not yet admitted by the scheduler.
    kWaitingStart,   // Admission refused for now; parked for retry.
    kActive,         // Admitted; executing steps.
    kWaitingLock,    // Blocked or delayed on a lock request.
    kExecuting,      // A step is running on the data-processing nodes.
    kCommitting,     // Commit processing at the control node.
    kCommitted,      // Done.
  };

  Transaction(TxnId id, std::vector<StepSpec> steps);

  TxnId id() const { return id_; }
  const std::vector<StepSpec>& steps() const { return steps_; }
  int num_steps() const { return static_cast<int>(steps_.size()); }
  const StepSpec& step(int i) const { return steps_[static_cast<size_t>(i)]; }

  // --- Access declaration (static; known at startup) ---

  // Strongest lock mode this transaction will request per file, as
  // (file, mode) pairs in ascending file order.
  auto lock_modes() const {
    return declared_ | std::views::transform([](const DeclaredFile& d) {
             return std::pair<FileId, LockMode>(d.file, d.mode);
           });
  }

  // Declared lock mode on `file`, which the transaction must declare.
  LockMode LockModeOf(FileId file) const;

  // First step index that touches `file`; -1 if never touched.
  int FirstStepFor(FileId file) const;

  // True if step `i` must issue a new lock request (i.e., it is the first
  // step touching its file — later steps reuse the already-held lock, which
  // the request_mode of the first step is required to cover).
  bool NeedsLockAt(int i) const;

  // Lock mode to request at step `i` (the declared strongest mode for that
  // file). Only meaningful when NeedsLockAt(i).
  LockMode RequestModeAt(int i) const;

  // True if the two transactions have declared conflicting accesses to at
  // least one common file.
  bool ConflictsWith(const Transaction& other) const;

  // First step index of *this* transaction whose file is accessed by `other`
  // in a conflicting mode; -1 if no conflict. Used for WTPG edge weights:
  // w(other -> this) = DeclaredCostFrom(FirstConflictingStep(other)).
  int FirstConflictingStep(const Transaction& other) const;

  // Sum of declared costs of steps [from_step, end). Returns 0 for
  // from_step >= num_steps(); from_step < 0 is clamped to 0.
  double DeclaredCostFrom(int from_step) const;
  double DeclaredTotalCost() const { return DeclaredCostFrom(0); }
  // Declared cost still ahead of the transaction (from its current step).
  double DeclaredRemainingCost() const { return DeclaredCostFrom(current_step_); }

  // --- Execution state (owned by the machine) ---

  State state() const { return state_; }
  void set_state(State s) { state_ = s; }

  // Index of the next step to execute; num_steps() when all steps are done.
  int current_step() const { return current_step_; }
  void AdvanceStep();
  bool AllStepsDone() const { return current_step_ >= num_steps(); }

  // Resets execution progress (OPT restart after failed validation).
  void ResetForRestart();

  // --- Timestamps & counters (for metrics) ---

  // Index of the workload-mix component this transaction was drawn from
  // (0 for single-pattern workloads); used for per-class statistics.
  int workload_class = 0;

  // Scheduling priority of the workload class (higher = more urgent;
  // 0 = batch/background). Read by the admission-control gate in
  // Scheduler::OnStartup; constant across incarnations.
  int priority = 0;

  SimTime arrival_time = 0;      // First arrival at the control node.
  SimTime admit_time = -1;       // When the scheduler admitted it (last incarnation).
  SimTime completion_time = -1;  // When commit processing finished.
  int restarts = 0;              // OPT validation failures.
  int blocked_count = 0;         // Times a lock request was blocked.
  int delayed_count = 0;         // Times a request was delayed by the scheduler.
  int start_rejections = 0;      // Times admission was refused (GOW chain test etc).

  std::string DebugString() const;

 private:
  // One declared file: the strongest mode requested on it and the first
  // step that touches it.
  struct DeclaredFile {
    FileId file = kInvalidFile;
    LockMode mode = LockMode::kShared;
    int first_step = 0;
  };

  // The entry for `file`, or nullptr when it is not declared (binary
  // search: declared_ is sorted by file).
  const DeclaredFile* Find(FileId file) const;

  TxnId id_;
  std::vector<StepSpec> steps_;
  std::vector<DeclaredFile> declared_;  // Ascending by file.
  State state_ = State::kCreated;
  int current_step_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MODEL_TRANSACTION_H_
