#include "sched/c2pl.h"

#include <algorithm>

#include "metrics/counters.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {

C2plScheduler::C2plScheduler(SimTime ddtime, int mpl)
    : ddtime_(ddtime), mpl_(mpl) {}

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

void C2plScheduler::AfterAdmit(Transaction& txn) { pending_.Add(txn); }

void C2plScheduler::OnLockRecorded(Transaction& txn, FileId file) {
  pending_.Remove(file, txn.id());
}

Decision C2plScheduler::DecideLock(Transaction& txn, int step) {
  const FileId file = txn.step(step).file;
  const LockMode mode = txn.RequestModeAt(step);
  if (!lock_table_.CanGrant(file, txn.id(), mode)) {
    return Decision{DecisionKind::kBlock, file};
  }
  // Granting fixes txn -> u for every pending conflicter u, which closes a
  // cycle iff some such u already precedes txn. The ancestor set is small
  // even when a saturated file has hundreds of pending conflicters, and
  // each ancestor is one binary search in the file's pending list.
  ++wtpg_evals_;
  Reach(txn, /*reverse=*/true, &ancestors_);
  bool cycle = false;
  for (TxnId a : ancestors_) {
    const PendingIndex::Access* p = pending_.Find(file, a);
    if (p != nullptr && Conflicts(mode, p->mode)) {
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

template <typename Visit>
void C2plScheduler::ForEachNeighbor(const Transaction& txn, bool reverse,
                                    Visit&& visit) const {
  for (const auto& [file, mode] : txn.lock_modes()) {
    if (reverse) {
      // Conflicting holders precede txn (none on a file txn holds itself).
      for (const LockTable::Holder& h : lock_table_.HoldersOf(file)) {
        if (h.txn != txn.id() && Conflicts(mode, h.mode)) visit(h.txn);
      }
    } else if (lock_table_.Holds(file, txn.id())) {
      for (const PendingIndex::Access& p : pending_.Of(file).items) {
        if (Conflicts(mode, p.mode)) visit(p.txn);
      }
    }
  }
  if (const DurableOrders* orders =
          durable_.Find(static_cast<uint64_t>(txn.id()))) {
    for (TxnId v : reverse ? orders->in : orders->out) visit(v);
  }
}

void C2plScheduler::Reach(const Transaction& start, bool reverse,
                          std::vector<TxnId>* out) const {
  const uint64_t epoch = ++epoch_;
  out->clear();
  stack_.clear();
  const auto visit = [&](TxnId v) {
    uint64_t& mark = *marks_.Insert(static_cast<uint64_t>(v)).first;
    if (mark == epoch) return;
    mark = epoch;
    out->push_back(v);
    stack_.push_back(active_.at(v));
  };
  stack_.push_back(&start);
  while (!stack_.empty()) {
    const Transaction* cur = stack_.back();
    stack_.pop_back();
    ForEachNeighbor(*cur, reverse, visit);
  }
}

void C2plScheduler::Ancestors(TxnId txn, std::vector<TxnId>* out) const {
  Reach(*active_.at(txn), /*reverse=*/true, out);
}

void C2plScheduler::Descendants(TxnId txn, std::vector<TxnId>* out) const {
  Reach(*active_.at(txn), /*reverse=*/false, out);
}

void C2plScheduler::Forget(const Transaction& txn) {
  // The path x ~> txn ~> y through the leaver fixed x before y; keep that
  // order for every conflicting pair once txn is gone.
  Reach(txn, /*reverse=*/true, &ancestors_);
  if (!ancestors_.empty()) {
    Reach(txn, /*reverse=*/false, &descendants_);
    for (TxnId x : ancestors_) {
      const Transaction& tx = *active_.at(x);
      for (TxnId y : descendants_) {
        if (tx.ConflictsWith(*active_.at(y))) AddDurable(x, y);
      }
    }
  }
  const uint64_t key = static_cast<uint64_t>(txn.id());
  if (DurableOrders* found = durable_.Find(key)) {
    const DurableOrders orders = std::move(*found);
    durable_.Erase(key);
    // Drops txn from the other end's list, and an entry left empty.
    const auto unlink = [&](TxnId other, bool in_list) {
      DurableOrders* o = durable_.Find(static_cast<uint64_t>(other));
      WTPG_CHECK(o != nullptr) << "durable order without its other end";
      std::erase(in_list ? o->in : o->out, txn.id());
      if (o->in.empty() && o->out.empty()) {
        durable_.Erase(static_cast<uint64_t>(other));
      }
    };
    for (TxnId x : orders.in) unlink(x, /*in_list=*/false);
    for (TxnId y : orders.out) unlink(y, /*in_list=*/true);
  }
  marks_.Erase(key);
  pending_.RemoveAll(txn);
}

void C2plScheduler::AddDurable(TxnId from, TxnId to) {
  std::vector<TxnId>& out =
      durable_.Insert(static_cast<uint64_t>(from)).first->out;
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  durable_.Insert(static_cast<uint64_t>(to)).first->in.push_back(from);
}

std::vector<std::pair<TxnId, TxnId>> C2plScheduler::durable_orders() const {
  std::vector<std::pair<TxnId, TxnId>> orders;
  durable_.ForEach([&](uint64_t from, const DurableOrders& o) {
    for (TxnId to : o.out) orders.emplace_back(static_cast<TxnId>(from), to);
  });
  std::sort(orders.begin(), orders.end());
  return orders;
}

Wtpg C2plScheduler::PrecedenceSnapshot() const {
  Wtpg graph;
  for (const auto& [id, txn] : active_) {
    graph.AddNode(id, txn->DeclaredRemainingCost());
  }
  for (const auto& [id, txn] : active_) {
    const TxnId from = id;
    ForEachNeighbor(*txn, /*reverse=*/false, [&](TxnId to) {
      if (graph.FindEdge(from, to) != nullptr) return;
      graph.AddConflictEdge(from, to, 0.0, 0.0);
      WTPG_CHECK(graph.TryOrient(from, to)) << "cyclic C2PL precedence";
    });
  }
  return graph;
}

std::vector<Scheduler::NamedCounter> C2plScheduler::Counters() const {
  return {{"c2pl.predicted_deadlocks", &predicted_deadlocks_}};
}

void C2plScheduler::ExportDecisionCounters(CounterRegistry* registry) const {
  registry->Counter("wtpg.evals") += wtpg_evals_;
}

}  // namespace wtpgsched
