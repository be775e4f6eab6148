#include "sched/c2pl.h"

#include <algorithm>

#include "metrics/counters.h"
#include "util/string_util.h"

namespace wtpgsched {

C2plScheduler::C2plScheduler(SimTime ddtime, int mpl)
    : ddtime_(ddtime), mpl_(mpl) {
  // C2PL's graph is unweighted and its only reads are reachability probes,
  // which sparse precedence mode answers identically while skipping the
  // forced closure and the per-arrival conflict-edge materialization (the
  // dominant costs of a saturated C2PL run — see DESIGN.md section 12).
  graph_.SetSparsePrecedence();
}

std::string C2plScheduler::name() const {
  return mpl_ == std::numeric_limits<int>::max() ? "C2PL"
                                                 : StrCat("C2PL+M", mpl_);
}

SimTime C2plScheduler::LockDecisionCost(const Transaction& txn,
                                        int step) const {
  (void)txn;
  (void)step;
  return ddtime_;
}

Decision C2plScheduler::DecideStartup(Transaction& txn) {
  (void)txn;
  if (static_cast<int>(active_.size()) >= mpl_) {
    return Decision{DecisionKind::kBlock, kInvalidFile};
  }
  return Decision{DecisionKind::kGrant, kInvalidFile};
}

void C2plScheduler::AfterAdmit(Transaction& txn) { AddToGraph(txn); }

Decision C2plScheduler::DecideLock(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  if (!lock_table_.CanGrant(file, txn.id(), mode)) {
    return Decision{DecisionKind::kBlock, file};
  }
  // Deadlock prediction: granting determines txn -> u for every pending
  // conflicting declaration u, and those orientations close a cycle iff
  // some such u already reaches txn (every new edge leaves txn, so a cycle
  // must return over a pre-existing u ~> txn path). The test therefore runs
  // from the requester's side: its ancestor set is small even when a
  // saturated file has hundreds of pending conflicters, and each ancestor
  // is one binary search in the file's TxnId-sorted pending list.
  ++wtpg_evals_;
  graph_.AncestorsOf(txn.id(), &ancestors_scratch_);
  const std::vector<PendingAccess>& pending = PendingAccessors(file);
  bool cycle = false;
  for (TxnId a : ancestors_scratch_) {
    const auto pos = std::lower_bound(
        pending.begin(), pending.end(), a,
        [](const PendingAccess& p, TxnId id) { return p.txn < id; });
    if (pos != pending.end() && pos->txn == a && Conflicts(mode, pos->mode)) {
      cycle = true;
      break;
    }
  }
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

void C2plScheduler::ExportCounters(CounterRegistry* registry) const {
  registry->Counter("c2pl.predicted_deadlocks") += predicted_deadlocks_;
}

void C2plScheduler::RegisterGauges(GaugeRegistry* gauges) const {
  WtpgSchedulerBase::RegisterGauges(gauges);
  gauges->Register("c2pl.predicted_deadlocks", [this] {
    return static_cast<double>(predicted_deadlocks_);
  });
}

void C2plScheduler::AfterGrant(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  OrientAfterGrant(txn, file, txn.RequestModeAt(step));
}

}  // namespace wtpgsched
