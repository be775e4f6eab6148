#include "sched/low.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {

LowScheduler::LowScheduler(int k, SimTime kwtpgtime, bool charge_per_eval)
    : k_(k), kwtpgtime_(kwtpgtime), charge_per_eval_(charge_per_eval) {
  WTPG_CHECK_GE(k_, 0);
}

std::string LowScheduler::name() const { return StrCat("LOW(K=", k_, ")"); }

SimTime LowScheduler::LockDecisionCost(const Transaction& txn,
                                       int step) const {
  if (!charge_per_eval_) return kwtpgtime_;
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  const size_t conflicters = pending_.CountPendingConflicters(file, txn.id(), mode);
  // One evaluation for E(q) plus one per competitor E(p).
  return kwtpgtime_ * static_cast<SimTime>(1 + conflicters);
}

bool LowScheduler::AdmissionWithinK(const Transaction& txn) const {
  for (const auto& [file, mode] : txn.lock_modes()) {
    // Every would-be requester of this granule — the pending declarations
    // (the newcomer is not in the index yet: admission runs before
    // AddToGraph) plus the newcomer — must see at most K conflicting
    // declarations. With only S and X modes a requester's conflicter count
    // depends on nothing but its own mode, so the historical per-entry scan
    // collapses to one check per mode class against the maintained totals:
    //   newcomer:        every entry when X, exactly the X entries when S;
    //   pending X entry: the newcomer plus all other entries;
    //   pending S entry: the X entries, plus the newcomer when it is X.
    const PendingIndex::List& pending = pending_.Of(file);
    const int total = static_cast<int>(pending.items.size());
    const int x_count = pending.x_count;
    const int newcomer_x = mode == LockMode::kExclusive ? 1 : 0;
    if ((newcomer_x != 0 ? total : x_count) > k_) return false;
    if (x_count > 0 && total > k_) return false;  // 1 + (total - 1)
    if (x_count < total && newcomer_x + x_count > k_) return false;
  }
  return true;
}

Decision LowScheduler::DecideStartup(Transaction& txn) {
  if (!AdmissionWithinK(txn)) {
    ++admission_k_rejections_;
    return Decision{DecisionKind::kDelay, kInvalidFile};
  }
  return Decision{DecisionKind::kGrant, kInvalidFile};
}

void LowScheduler::AfterAdmit(Transaction& txn) { AddToGraph(txn); }

Decision LowScheduler::DecideLock(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  // Phase1.
  if (!lock_table_.CanGrant(file, txn.id(), mode)) {
    return Decision{DecisionKind::kBlock, file};
  }
  pending_.PendingConflicters(file, txn.id(), mode, &competitors_scratch_);
  const std::vector<TxnId>& competitors = competitors_scratch_;
  WTPG_CHECK_LE(static_cast<int>(competitors.size()), k_)
      << "admission control must bound |C(q)|";
  // Phase2: E(q). Test the raw evaluation for deadlock (infinity) before
  // adding the penalty: isinf instead of a float equality, and the penalty
  // cannot push a finite sum into the infinity test (or an infinite penalty
  // masquerade as a deadlock).
  ++wtpg_evals_;
  const double eq_graph = EvaluateGrant(graph_, txn.id(), competitors);
  if (std::isinf(eq_graph)) {
    ++deadlock_delays_;
    if (tracing()) {
      trace_->Record({.time = trace_->now(),
                      .type = TraceEventType::kLowDeadlock,
                      .txn = txn.id(),
                      .file = file,
                      .step = step,
                      .arg = static_cast<int32_t>(competitors.size())});
    }
    return Decision{DecisionKind::kDelay, file};
  }
  const double eq = eq_graph + GrantPenalty(txn, step);
  if (tracing()) {
    // E(q): critical path after the hypothetical grant (value), penalized
    // value actually compared (value2), |C(q)| in arg.
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kLowEval,
                    .txn = txn.id(),
                    .file = file,
                    .step = step,
                    .arg = static_cast<int32_t>(competitors.size()),
                    .value = eq_graph,
                    .value2 = eq});
  }
  // Phase3: E(q) <= E(p) for all p in C(q).
  for (TxnId u : competitors) {
    const Transaction* other = active_.at(u);
    const LockMode other_mode = other->lock_modes().at(file);
    pending_.PendingConflicters(file, u, other_mode, &cp_scratch_);
    ++wtpg_evals_;
    const double ep = EvaluateGrant(graph_, u, cp_scratch_);
    if (tracing()) {
      // Competitor evaluation: E(p) for p in C(q); arg = -1 marks it as a
      // competitor row of the preceding kLowEval.
      trace_->Record({.time = trace_->now(),
                      .type = TraceEventType::kLowEval,
                      .txn = u,
                      .file = file,
                      .step = step,
                      .arg = -1,
                      .value = ep});
    }
    if (eq > ep) return Decision{DecisionKind::kDelay, file};
  }
  return Decision{DecisionKind::kGrant, file};
}

void LowScheduler::AfterGrant(Transaction& txn, int step) {
  // Phase4.
  const FileId file = txn.step(step).file;
  OrientAfterGrant(txn, file, txn.RequestModeAt(step));
}

double LowScheduler::GrantPenalty(const Transaction& txn, int step) const {
  (void)txn;
  (void)step;
  return 0.0;
}

std::vector<Scheduler::NamedCounter> LowScheduler::Counters() const {
  return {{"low.k_rejections", &admission_k_rejections_},
          {"low.deadlock_delays", &deadlock_delays_}};
}

}  // namespace wtpgsched
