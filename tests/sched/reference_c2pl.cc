#include "sched/reference_c2pl.h"

#include <stdexcept>

#include "metrics/counters.h"
#include "util/string_util.h"

namespace wtpgsched {

ReferenceC2pl::ReferenceC2pl(SimTime ddtime, int mpl)
    : ddtime_(ddtime), mpl_(mpl) {
  graph_.SetSparsePrecedence();
}

std::string ReferenceC2pl::name() const {
  return mpl_ == std::numeric_limits<int>::max() ? "C2PL"
                                                 : StrCat("C2PL+M", mpl_);
}

SimTime ReferenceC2pl::LockDecisionCost(const Transaction& txn,
                                        int step) const {
  (void)txn;
  (void)step;
  return ddtime_;
}

Decision ReferenceC2pl::DecideStartup(Transaction& txn) {
  (void)txn;
  if (static_cast<int>(active_.size()) >= mpl_) {
    return Decision{DecisionKind::kBlock, kInvalidFile};
  }
  return Decision{DecisionKind::kGrant, kInvalidFile};
}

void ReferenceC2pl::AfterAdmit(Transaction& txn) {
  graph_.AddNode(txn.id(), 0.0);
  std::vector<TxnId> holders;
  for (const auto& [file, mode] : txn.lock_modes()) {
    lock_table_.ConflictingHolders(file, txn.id(), mode, &holders);
    for (TxnId holder : holders) {
      if (!graph_.OrientBatch(holder, {txn.id()}, /*keep=*/true)) {
        throw std::logic_error("holder -> newcomer closes a cycle");
      }
    }
  }
  pending_.Add(txn);
}

Decision ReferenceC2pl::DecideLock(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  if (!lock_table_.CanGrant(file, txn.id(), mode)) {
    return Decision{DecisionKind::kBlock, file};
  }
  ++wtpg_evals_;
  std::vector<TxnId> conflicters;
  pending_.PendingConflicters(file, txn.id(), mode, &conflicters);
  const bool cycle = graph_.WouldCycle(txn.id(), conflicters);
  if (tracing()) {
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kC2plPredict,
                    .txn = txn.id(),
                    .file = file,
                    .step = step,
                    .arg = cycle ? 1 : 0});
  }
  if (cycle) {
    ++predicted_deadlocks_;
    return Decision{DecisionKind::kDelay, file};
  }
  return Decision{DecisionKind::kGrant, file};
}

void ReferenceC2pl::OnLockRecorded(Transaction& txn, FileId file) {
  pending_.Remove(file, txn.id());
}

void ReferenceC2pl::AfterGrant(Transaction& txn, int step) {
  std::vector<TxnId> conflicters;
  pending_.PendingConflicters(txn.step(step).file, txn.id(),
                              txn.RequestModeAt(step), &conflicters);
  if (!graph_.OrientBatch(txn.id(), conflicters, /*keep=*/true)) {
    throw std::logic_error("grant contradicts a stored order");
  }
}

void ReferenceC2pl::Remove(const Transaction& txn) {
  // txn has left active_; its node and edges are still in the graph.
  std::vector<const Transaction*> ancestors;
  std::vector<const Transaction*> descendants;
  for (const auto& [id, other] : active_) {
    if (graph_.HasPath(id, txn.id())) ancestors.push_back(other);
  }
  for (const auto& [id, other] : active_) {
    if (!ancestors.empty() && graph_.HasPath(txn.id(), id)) {
      descendants.push_back(other);
    }
  }
  for (const Transaction* x : ancestors) {
    for (const Transaction* y : descendants) {
      if (x->ConflictsWith(*y)) graph_.ForceOrientSparse(x->id(), y->id());
    }
  }
  graph_.RemoveNode(txn.id());
  pending_.RemoveAll(txn);
}

std::vector<Scheduler::NamedCounter> ReferenceC2pl::Counters() const {
  return {{"c2pl.predicted_deadlocks", &predicted_deadlocks_}};
}

void ReferenceC2pl::ExportDecisionCounters(CounterRegistry* registry) const {
  registry->Counter("wtpg.evals") += wtpg_evals_;
}

}  // namespace wtpgsched
