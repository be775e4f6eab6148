#include "sched/pending_index.h"

#include <algorithm>

#include "util/logging.h"

namespace wtpgsched {
namespace {

std::vector<PendingIndex::Access>::const_iterator LowerBound(
    const std::vector<PendingIndex::Access>& items, TxnId txn) {
  return std::lower_bound(
      items.begin(), items.end(), txn,
      [](const PendingIndex::Access& a, TxnId id) { return a.txn < id; });
}

}  // namespace

const PendingIndex::List PendingIndex::kEmpty;

void PendingIndex::Add(const Transaction& txn) {
  for (const auto& [file, mode] : txn.lock_modes()) {
    const size_t slot = static_cast<size_t>(slots_.FindOrInsert(file));
    if (slot == lists_.size()) lists_.emplace_back();
    List& list = lists_[slot];
    const auto pos = LowerBound(list.items, txn.id());
    WTPG_CHECK(pos == list.items.end() || pos->txn != txn.id())
        << "T" << txn.id() << " already pending on file " << file;
    list.items.insert(pos, Access{txn.id(), mode});
    if (mode == LockMode::kExclusive) ++list.x_count;
  }
}

void PendingIndex::Remove(FileId file, TxnId txn) {
  const int32_t slot = slots_.Find(file);
  if (slot == FileIndex::kAbsent) return;
  List& list = lists_[static_cast<size_t>(slot)];
  const auto pos = LowerBound(list.items, txn);
  if (pos == list.items.end() || pos->txn != txn) return;
  if (pos->mode == LockMode::kExclusive) --list.x_count;
  list.items.erase(pos);
}

void PendingIndex::RemoveAll(const Transaction& txn) {
  for (const auto& [file, mode] : txn.lock_modes()) {
    (void)mode;
    Remove(file, txn.id());
  }
}

const PendingIndex::Access* PendingIndex::Find(FileId file, TxnId txn) const {
  const std::vector<Access>& items = Of(file).items;
  const auto pos = LowerBound(items, txn);
  return pos == items.end() || pos->txn != txn ? nullptr : &*pos;
}

void PendingIndex::PendingConflicters(FileId file, TxnId requester,
                                      LockMode mode,
                                      std::vector<TxnId>* out) const {
  out->clear();
  for (const Access& p : Of(file).items) {
    if (p.txn != requester && Conflicts(mode, p.mode)) out->push_back(p.txn);
  }
}

size_t PendingIndex::CountPendingConflicters(FileId file, TxnId requester,
                                             LockMode mode) const {
  // An X request conflicts with every other entry, an S request with
  // exactly the X entries; one binary search classifies the requester's
  // own entry.
  const List& list = Of(file);
  const auto pos = LowerBound(list.items, requester);
  const bool own = pos != list.items.end() && pos->txn == requester;
  if (mode == LockMode::kExclusive) {
    return list.items.size() - (own ? 1 : 0);
  }
  const bool own_x = own && pos->mode == LockMode::kExclusive;
  return static_cast<size_t>(list.x_count) - (own_x ? 1 : 0);
}

}  // namespace wtpgsched
