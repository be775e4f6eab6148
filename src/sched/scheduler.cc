#include "sched/scheduler.h"

#include <algorithm>

#include "metrics/counters.h"
#include "util/logging.h"

namespace wtpgsched {

SimTime Scheduler::StartupDecisionCost(const Transaction& txn) const {
  (void)txn;
  return 0;
}

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
  if (admission_.enabled() && txn.priority < admission_.priority_cutoff &&
      active_low_priority_ >=
          static_cast<size_t>(admission_.low_priority_mpl)) {
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

void Scheduler::RegisterGauges(GaugeRegistry* gauges) const {
  gauges->Register("sched.active",
                   [this] { return static_cast<double>(active_.size()); });
  gauges->Register("sched.active_low", [this] {
    return static_cast<double>(active_low_priority_);
  });
  gauges->Register("lock.locked_files", [this] {
    return static_cast<double>(lock_table_.num_locked_files());
  });
}

std::vector<FileId> Scheduler::OnCommit(Transaction& txn) {
  WTPG_CHECK(active_.erase(txn.id()) == 1)
      << "OnCommit for inactive T" << txn.id();
  if (txn.priority < admission_.priority_cutoff && active_low_priority_ > 0) {
    --active_low_priority_;
  }
  std::vector<FileId> released = lock_table_.ReleaseAll(txn.id());
  AfterCommit(txn);
  return released;
}

std::vector<FileId> Scheduler::OnAbort(Transaction& txn) {
  WTPG_CHECK(active_.erase(txn.id()) == 1)
      << "OnAbort for inactive T" << txn.id();
  if (txn.priority < admission_.priority_cutoff && active_low_priority_ > 0) {
    --active_low_priority_;
  }
  std::vector<FileId> released = lock_table_.ReleaseAll(txn.id());
  AfterAbort(txn);
  return released;
}

const WtpgSchedulerBase::PendingList WtpgSchedulerBase::kNoPending;

void WtpgSchedulerBase::AddToGraph(Transaction& txn) {
  graph_.AddNode(txn.id(), txn.DeclaredRemainingCost());
  // A sparse-precedence graph (C2PL) materializes edges on demand at
  // orientation time; the O(active) conflict scan — and the pairwise
  // declared-cost weights only the weighted schedulers read — is skipped.
  if (!graph_.sparse_precedence()) {
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
  }
  // Strict locking: a transaction already holding a granule that txn will
  // need in a conflicting mode precedes txn — the order is determined now.
  // Every declared access also enters the pending index here; it leaves when
  // the lock is recorded (OnLockRecorded) or the incarnation ends.
  for (const auto& [file, mode] : txn.lock_modes()) {
    lock_table_.ConflictingHolders(file, txn.id(), mode, &holders_scratch_);
    for (TxnId holder : holders_scratch_) {
      WTPG_CHECK(graph_.OrientNoRollback(holder, txn.id()))
          << "pre-orientation of holder T" << holder << " -> new T"
          << txn.id() << " cannot cycle";
    }
    const size_t slot =
        static_cast<size_t>(pending_slots_.FindOrInsert(file));
    if (slot == pending_by_file_.size()) pending_by_file_.emplace_back();
    auto& pending = pending_by_file_[slot];
    const auto pos = std::lower_bound(
        pending.items.begin(), pending.items.end(), txn.id(),
        [](const PendingAccess& a, TxnId id) { return a.txn < id; });
    WTPG_CHECK(pos == pending.items.end() || pos->txn != txn.id())
        << "T" << txn.id() << " already pending on file " << file;
    pending.items.insert(pos, PendingAccess{txn.id(), mode});
    if (mode == LockMode::kExclusive) ++pending.x_count;
  }
}

void WtpgSchedulerBase::RegisterGauges(GaugeRegistry* gauges) const {
  Scheduler::RegisterGauges(gauges);
  gauges->Register("wtpg.nodes", [this] {
    return static_cast<double>(graph_.num_nodes());
  });
  gauges->Register("wtpg.edges", [this] {
    return static_cast<double>(graph_.num_edges());
  });
  gauges->Register("cache.hit_rate", [this] {
    const uint64_t total = cache_hits() + cache_misses();
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits()) /
                            static_cast<double>(total);
  });
}

void WtpgSchedulerBase::ExportDecisionCounters(
    CounterRegistry* registry) const {
  registry->Counter("wtpg.evals") += wtpg_evals_;
  registry->Counter("cache.hits") += cache_hits();
  registry->Counter("cache.misses") += cache_misses();
}

void WtpgSchedulerBase::OnStepCompleted(Transaction& txn, int step) {
  (void)step;
  // Only the T0-edge weights change as the schedule proceeds (Section 3.1).
  graph_.SetRemaining(txn.id(), txn.DeclaredRemainingCost());
}

void WtpgSchedulerBase::OnLockRecorded(Transaction& txn, FileId file) {
  RemovePending(file, txn.id());
}

void WtpgSchedulerBase::AfterCommit(Transaction& txn) {
  if (graph_.sparse_precedence()) CompensateSparseRemoval(txn);
  graph_.RemoveNode(txn.id());
  for (const auto& [file, mode] : txn.lock_modes()) {
    (void)mode;
    RemovePending(file, txn.id());
  }
  eval_cache_.Erase(txn.id());
  cycle_cache_.Erase(txn.id());
}

void WtpgSchedulerBase::AfterAbort(Transaction& txn) {
  if (graph_.sparse_precedence()) CompensateSparseRemoval(txn);
  graph_.RemoveNode(txn.id());
  for (const auto& [file, mode] : txn.lock_modes()) {
    (void)mode;
    RemovePending(file, txn.id());
  }
  eval_cache_.Erase(txn.id());
  cycle_cache_.Erase(txn.id());
}

void WtpgSchedulerBase::CompensateSparseRemoval(Transaction& txn) {
  // See the header comment for why this exists and why the ancestor set is
  // empty on the C2PL commit path. Note OnCommit/OnAbort erased `txn` from
  // active_ already; its graph node (and its paths) are still intact.
  graph_.AncestorsOf(txn.id(), &anc_scratch_);
  if (anc_scratch_.empty()) return;
  graph_.DescendantsOf(txn.id(), &desc_scratch_);
  if (desc_scratch_.empty()) return;
  for (TxnId x : anc_scratch_) {
    const Transaction& tx = *active_.at(x);
    for (TxnId y : desc_scratch_) {
      if (!tx.ConflictsWith(*active_.at(y))) continue;
      graph_.ForceOrientSparse(x, y);
    }
  }
}

void WtpgSchedulerBase::RemovePending(FileId file, TxnId txn) {
  const int32_t slot = pending_slots_.Find(file);
  if (slot == FileIndex::kAbsent) return;
  auto& pending = pending_by_file_[static_cast<size_t>(slot)];
  const auto pos = std::lower_bound(
      pending.items.begin(), pending.items.end(), txn,
      [](const PendingAccess& a, TxnId id) { return a.txn < id; });
  if (pos != pending.items.end() && pos->txn == txn) {
    if (pos->mode == LockMode::kExclusive) --pending.x_count;
    pending.items.erase(pos);
  }
}

std::vector<TxnId> WtpgSchedulerBase::PendingConflicters(
    FileId file, TxnId requester, LockMode mode) const {
  std::vector<TxnId> result;
  PendingConflicters(file, requester, mode, &result);
  return result;
}

void WtpgSchedulerBase::PendingConflicters(FileId file, TxnId requester,
                                           LockMode mode,
                                           std::vector<TxnId>* out) const {
  out->clear();
  for (const PendingAccess& p : PendingAccessors(file)) {
    if (p.txn != requester && Conflicts(mode, p.mode)) out->push_back(p.txn);
  }
}

size_t WtpgSchedulerBase::CountPendingConflicters(FileId file, TxnId requester,
                                                  LockMode mode) const {
  // S/X algebra over the maintained x_count: an X request conflicts with
  // every other entry, an S request with exactly the X entries. One binary
  // search classifies the requester's own entry — byte-identical counts to
  // the historical per-entry scan, in O(log P).
  const PendingList& pending = PendingListOf(file);
  const auto pos = std::lower_bound(
      pending.items.begin(), pending.items.end(), requester,
      [](const PendingAccess& a, TxnId id) { return a.txn < id; });
  const bool own = pos != pending.items.end() && pos->txn == requester;
  const bool own_x = own && pos->mode == LockMode::kExclusive;
  if (mode == LockMode::kExclusive) {
    return pending.items.size() - (own ? 1 : 0);
  }
  return static_cast<size_t>(pending.x_count) - (own_x ? 1 : 0);
}

double WtpgSchedulerBase::CachedEvaluateGrant(
    TxnId txn, const std::vector<TxnId>& targets) {
  const uint64_t version = graph_.version();
  const uint64_t weights = graph_.weights_epoch();
  if (const EvalCache::Entry* e =
          eval_cache_.Lookup(txn, targets, version, weights)) {
    return e->value_a;
  }
  ++wtpg_evals_;
  // EvaluateGrant speculates and rolls back, so the pre-call version is
  // also the post-call version the result stays valid under.
  const double value = EvaluateGrant(graph_, txn, targets);
  eval_cache_.Store(txn, targets, version, weights).value_a = value;
  return value;
}

bool WtpgSchedulerBase::CachedWouldCycle(TxnId txn,
                                         const std::vector<TxnId>& targets) {
  const uint64_t growth = graph_.growth_version();
  const uint64_t shrink = graph_.shrink_version();
  if (const CycleCache::Entry* e =
          cycle_cache_.Lookup(txn, targets, growth, shrink)) {
    return e->cycle;
  }
  ++wtpg_evals_;
  const bool cycle = graph_.WouldCycle(txn, targets);
  cycle_cache_.Store(txn, targets, cycle, growth, shrink);
  return cycle;
}

void WtpgSchedulerBase::OrientAfterGrant(Transaction& txn, FileId file,
                                         LockMode mode) {
  PendingConflicters(file, txn.id(), mode, &targets_scratch_);
  WTPG_CHECK(graph_.OrientBatchNoRollback(txn.id(), targets_scratch_))
      << "grant to T" << txn.id() << " on file " << file
      << " contradicts WTPG orientations — decision logic must have "
         "prevented this";
}

}  // namespace wtpgsched
