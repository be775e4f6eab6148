#include "sched/scheduler.h"

#include "metrics/counters.h"
#include "util/logging.h"

namespace wtpgsched {

SimTime Scheduler::StartupDecisionCost() const { return 0; }

SimTime Scheduler::LockDecisionCost(const Transaction& txn, int step) const {
  (void)txn;
  (void)step;
  return 0;
}

Decision Scheduler::OnStartup(Transaction& txn) {
  WTPG_CHECK(active_.find(txn.id()) == active_.end())
      << "OnStartup for already-active T" << txn.id();
  // Priority-aware admission gate, ahead of the scheduler-specific test:
  // every scheduler inherits it. kDelay parks the transaction; the machine
  // retries it when a commit (or grant / fallback timer) changes the state.
  if (Gates(txn.priority)) {
    ++admission_gated_;
    return Decision{DecisionKind::kDelay, kInvalidFile};
  }
  Decision d = DecideStartup(txn);
  if (d.kind == DecisionKind::kGrant) {
    active_[txn.id()] = &txn;
    if (txn.priority < admission_.priority_cutoff) ++active_low_priority_;
    AfterAdmit(txn);
  }
  return d;
}

void Scheduler::RepeatStartupRefusals(uint64_t gated, uint64_t refused) {
  admission_gated_ += gated;
  if (refused > 0) CountRepeatedRefusals(refused);
}

Decision Scheduler::OnLockRequest(Transaction& txn, int step) {
  WTPG_CHECK(active_.find(txn.id()) != active_.end())
      << "lock request from inactive T" << txn.id();
  WTPG_CHECK(txn.NeedsLockAt(step));
  Decision d = DecideLock(txn, step);
  if (d.kind == DecisionKind::kGrant) {
    if (traits().records_locks) {
      const FileId file = txn.step(step).file;
      const LockMode mode = txn.RequestModeAt(step);
      if (traits().checks_compatibility) {
        lock_table_.Grant(file, txn.id(), mode);
      } else {
        lock_table_.ForceGrant(file, txn.id(), mode);
      }
      OnLockRecorded(txn, file);
    }
    AfterGrant(txn, step);
  }
  return d;
}

void Scheduler::OnStepCompleted(Transaction& txn, int step) {
  (void)txn;
  (void)step;
}

bool Scheduler::ValidateAtCommit(Transaction& txn) {
  (void)txn;
  return true;
}

void Scheduler::ExportCounters(CounterRegistry* registry) const {
  for (const NamedCounter& counter : Counters()) {
    registry->Counter(counter.name) += *counter.value;
  }
}

void Scheduler::RegisterGauges(GaugeRegistry* gauges) const {
  gauges->Register("sched.active",
                   [this] { return static_cast<double>(active_.size()); });
  gauges->Register("sched.active_low", [this] {
    return static_cast<double>(active_low_priority_);
  });
  gauges->Register("lock.locked_files", [this] {
    return static_cast<double>(lock_table_.num_locked_files());
  });
  RegisterGraphGauges(gauges);
  for (const NamedCounter& counter : Counters()) {
    gauges->Register(counter.name, [value = counter.value] {
      return static_cast<double>(*value);
    });
  }
}

std::vector<FileId> Scheduler::OnCommit(Transaction& txn) {
  return End(txn, /*commit=*/true);
}

std::vector<FileId> Scheduler::OnAbort(Transaction& txn) {
  return End(txn, /*commit=*/false);
}

std::vector<FileId> Scheduler::End(Transaction& txn, bool commit) {
  WTPG_CHECK(active_.erase(txn.id()) == 1)
      << (commit ? "OnCommit" : "OnAbort") << " for inactive T" << txn.id();
  if (txn.priority < admission_.priority_cutoff && active_low_priority_ > 0) {
    --active_low_priority_;
  }
  EaseAdmission();
  if (commit) {
    AfterCommit(txn);
  } else {
    AfterAbort(txn);
  }
  return lock_table_.ReleaseAll(txn.id());
}

void WtpgSchedulerBase::AddToGraph(Transaction& txn) {
  graph_.AddNode(txn.id(), txn.DeclaredRemainingCost());
  for (const auto& [id, other] : active_) {
    if (id == txn.id()) continue;
    if (!txn.ConflictsWith(*other)) continue;
    // w(other -> txn): txn's declared cost from its first step conflicting
    // with `other`; symmetric for w(txn -> other).
    const double w_other_txn =
        txn.DeclaredCostFrom(txn.FirstConflictingStep(*other));
    const double w_txn_other =
        other->DeclaredCostFrom(other->FirstConflictingStep(txn));
    graph_.AddConflictEdge(id, txn.id(), /*weight_ab=*/w_other_txn,
                           /*weight_ba=*/w_txn_other);
  }
  // Strict locking: a transaction already holding a granule that txn will
  // need in a conflicting mode precedes txn — the order is determined now.
  for (const auto& [file, mode] : txn.lock_modes()) {
    lock_table_.ConflictingHolders(file, txn.id(), mode, &holders_scratch_);
    for (TxnId holder : holders_scratch_) {
      WTPG_CHECK(graph_.OrientNoRollback(holder, txn.id()))
          << "pre-orientation of holder T" << holder << " -> new T"
          << txn.id() << " cannot cycle";
    }
  }
  // Every declared access stays pending until the lock is recorded
  // (OnLockRecorded) or the incarnation ends.
  pending_.Add(txn);
}

void WtpgSchedulerBase::RegisterGraphGauges(GaugeRegistry* gauges) const {
  gauges->Register("wtpg.nodes", [this] {
    return static_cast<double>(graph_.num_nodes());
  });
  gauges->Register("wtpg.edges", [this] {
    return static_cast<double>(graph_.num_edges());
  });
}

void WtpgSchedulerBase::ExportDecisionCounters(
    CounterRegistry* registry) const {
  registry->Counter("wtpg.evals") += wtpg_evals_;
}

void WtpgSchedulerBase::OnStepCompleted(Transaction& txn, int step) {
  (void)step;
  // Only the T0-edge weights change as the schedule proceeds (Section 3.1).
  graph_.SetRemaining(txn.id(), txn.DeclaredRemainingCost());
}

void WtpgSchedulerBase::OnLockRecorded(Transaction& txn, FileId file) {
  pending_.Remove(file, txn.id());
  // LOW's K bound counts pending declarations.
  EaseAdmission();
}

void WtpgSchedulerBase::RemoveFromGraph(Transaction& txn) {
  graph_.RemoveNode(txn.id());
  pending_.RemoveAll(txn);
}

void WtpgSchedulerBase::OrientAfterGrant(Transaction& txn, FileId file,
                                         LockMode mode) {
  pending_.PendingConflicters(file, txn.id(), mode, &targets_scratch_);
  WTPG_CHECK(graph_.OrientBatchNoRollback(txn.id(), targets_scratch_))
      << "grant to T" << txn.id() << " on file " << file
      << " contradicts WTPG orientations — decision logic must have "
         "prevented this";
}

}  // namespace wtpgsched
