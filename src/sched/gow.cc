#include "sched/gow.h"

#include "util/logging.h"

namespace wtpgsched {

GowScheduler::GowScheduler(SimTime toptime, SimTime chaintime)
    : toptime_(toptime), chaintime_(chaintime) {}

SimTime GowScheduler::LockDecisionCost(const Transaction& txn,
                                       int step) const {
  (void)txn;
  (void)step;
  return chaintime_;
}

Decision GowScheduler::DecideStartup(Transaction& txn) {
  // Phase0: chain-form test.
  std::vector<TxnId> conflict_set;
  for (const auto& [id, other] : active_) {
    if (txn.ConflictsWith(*other)) conflict_set.push_back(id);
  }
  const bool accepted = CanExtendChain(graph_, conflict_set);
  if (tracing()) {
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kGowChainTest,
                    .txn = txn.id(),
                    .arg = accepted ? 1 : 0,
                    .value = static_cast<double>(conflict_set.size())});
  }
  if (!accepted) {
    ++chain_rejections_;
    return Decision{DecisionKind::kReject, kInvalidFile};
  }
  return Decision{DecisionKind::kGrant, kInvalidFile};
}

void GowScheduler::AfterAdmit(Transaction& txn) { AddToGraph(txn); }

Decision GowScheduler::DecideLock(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  // Phase1.
  if (!lock_table_.CanGrant(file, txn.id(), mode)) {
    return Decision{DecisionKind::kBlock, file};
  }
  // The orientations this grant would determine. In chain form every
  // conflicter is adjacent to txn in its chain.
  pending_.PendingConflicters(file, txn.id(), mode, &targets_scratch2_);
  const std::vector<TxnId>& targets = targets_scratch2_;
  if (targets.empty()) {
    // No serialization order is determined: trivially consistent with W.
    if (tracing()) {
      trace_->Record({.time = trace_->now(),
                      .type = TraceEventType::kGowOrientation,
                      .txn = txn.id(),
                      .file = file,
                      .step = step,
                      .arg = static_cast<int32_t>(
                          GowOutcome::kGowGrantTrivial)});
    }
    return Decision{DecisionKind::kGrant, file};
  }
  // Already-determined order against us => granting would close a cycle.
  for (TxnId u : targets) {
    if (graph_.IsOriented(u, txn.id())) {
      if (tracing()) {
        trace_->Record({.time = trace_->now(),
                        .type = TraceEventType::kGowOrientation,
                        .txn = txn.id(),
                        .file = file,
                        .step = step,
                        .arg = static_cast<int32_t>(
                            GowOutcome::kGowDelayOriented)});
      }
      return Decision{DecisionKind::kDelay, file};
    }
  }
  // Phase2: the globally-optimized serializable order W is the orientation
  // minimizing the chain's critical path. Phase3: the grant is consistent
  // with W iff forcing the orientations it determines still achieves that
  // minimal critical path — i.e. *some* optimal order grants q (ties go to
  // the requester; delaying on an exact tie would starve symmetric
  // workloads).
  ++wtpg_evals_;
  StatusOr<ChainPlan> base = OptimizeChainOf(graph_, txn.id());
  WTPG_CHECK(base.ok()) << base.status().ToString();
  // Speculate the forced orientations in place (journal + rollback)
  // instead of cloning the graph — this runs on every GOW lock decision.
  Wtpg::OrientJournal journal;
  WTPG_CHECK(graph_.OrientBatch(txn.id(), targets, &journal))
      << "chain-form orientations cannot cycle once IsOriented was checked";
  StatusOr<ChainPlan> with_grant = OptimizeChainOf(graph_, txn.id());
  graph_.Rollback(&journal);
  WTPG_CHECK(with_grant.ok()) << with_grant.status().ToString();
  const double base_cp = base->critical_path;
  const double with_cp = with_grant->critical_path;
  const bool suboptimal = with_cp > base_cp + 1e-9;
  if (tracing()) {
    // Optimized-order comparison: critical path of the best order without
    // the grant (value) vs. with its forced orientations (value2).
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kGowOrientation,
                    .txn = txn.id(),
                    .file = file,
                    .step = step,
                    .arg = static_cast<int32_t>(
                        suboptimal ? GowOutcome::kGowDelaySuboptimal
                                   : GowOutcome::kGowGrantOptimal),
                    .value = base_cp,
                    .value2 = with_cp});
  }
  if (suboptimal) {
    return Decision{DecisionKind::kDelay, file};
  }
  return Decision{DecisionKind::kGrant, file};
}

std::vector<Scheduler::NamedCounter> GowScheduler::Counters() const {
  return {{"gow.chain_rejections", &chain_rejections_}};
}

void GowScheduler::AfterGrant(Transaction& txn, int step) {
  // Phase4.
  const FileId file = txn.step(step).file;
  OrientAfterGrant(txn, file, txn.RequestModeAt(step));
}

}  // namespace wtpgsched
