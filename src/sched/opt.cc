#include "sched/opt.h"

#include <unordered_set>

namespace wtpgsched {

Decision OptScheduler::DecideStartup(Transaction& txn) {
  incarnation_start_[txn.id()] = now_;
  return Decision{DecisionKind::kGrant, kInvalidFile};
}

Decision OptScheduler::DecideLock(Transaction& txn, int step) {
  // Optimistic execution: never blocks, never takes locks.
  return Decision{DecisionKind::kGrant, txn.step(step).file};
}

bool OptScheduler::ValidateAtCommit(Transaction& txn) {
  const SimTime started = incarnation_start_.at(txn.id());
  // Files this transaction read (semantic S access on any step).
  std::unordered_set<FileId> read_files;
  for (const StepSpec& step : txn.steps()) {
    if (step.access == LockMode::kShared) read_files.insert(step.file);
  }
  for (const auto& [file, mode] : txn.lock_modes()) {
    (void)mode;
    if (!validate_writes_ && read_files.find(file) == read_files.end()) {
      continue;
    }
    auto it = last_write_commit_.find(file);
    if (it != last_write_commit_.end() && it->second > started) {
      ++validation_failures_;
      if (tracing()) {
        // Failed backward validation: the conflicting file and the age of
        // the incarnation at validation time (seconds).
        trace_->Record({.time = trace_->now(),
                        .type = TraceEventType::kOptValidation,
                        .txn = txn.id(),
                        .incarnation = txn.restarts,
                        .file = file,
                        .arg = 0,
                        .value = TimeToSeconds(now_ - started)});
      }
      return false;
    }
  }
  if (tracing()) {
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kOptValidation,
                    .txn = txn.id(),
                    .incarnation = txn.restarts,
                    .arg = 1,
                    .value = TimeToSeconds(now_ - started)});
  }
  return true;
}

void OptScheduler::AfterCommit(Transaction& txn) {
  incarnation_start_.erase(txn.id());
  for (const StepSpec& step : txn.steps()) {
    if (step.access == LockMode::kExclusive) {
      last_write_commit_[step.file] = now_;
    }
  }
}

std::vector<Scheduler::NamedCounter> OptScheduler::Counters() const {
  return {{"opt.validation_failures", &validation_failures_}};
}

}  // namespace wtpgsched
