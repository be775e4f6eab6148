#include "lock/lock_table.h"

#include <algorithm>

#include "util/logging.h"

namespace wtpgsched {

void LockTable::Grant(FileId file, TxnId txn, LockMode mode) {
  WTPG_CHECK(CanGrant(file, txn, mode))
      << "Grant() of incompatible lock on file " << file << " to T" << txn;
  ForceGrant(file, txn, mode);
}

void LockTable::ForceGrant(FileId file, TxnId txn, LockMode mode) {
  WTPG_CHECK_GE(file, 0);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Record({.time = trace_->now(),
                    .type = TraceEventType::kLockGrant,
                    .txn = txn,
                    .file = file,
                    .mode = mode});
  }
  const size_t slot = static_cast<size_t>(slots_.FindOrInsert(file));
  if (slot == holders_.size()) holders_.emplace_back();
  // Unconditionally, mirroring the historical operator[] insert — the shadow
  // must see the same key sequence the old keyed storage saw.
  released_order_.try_emplace(file);
  auto& holders = holders_[slot];
  for (Holder& h : holders) {
    if (h.txn == txn) {
      h.mode = Stronger(h.mode, mode);
      return;
    }
  }
  holders.push_back(Holder{txn, mode});
}

std::vector<FileId> LockTable::ReleaseAll(TxnId txn) {
  std::vector<FileId> released;
  for (auto it = released_order_.begin(); it != released_order_.end();) {
    const FileId file = it->first;
    auto& holders = holders_[static_cast<size_t>(slots_.Find(file))];
    const size_t before = holders.size();
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [txn](const Holder& h) { return h.txn == txn; }),
                  holders.end());
    if (holders.size() != before) {
      released.push_back(file);
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->Record({.time = trace_->now(),
                        .type = TraceEventType::kLockRelease,
                        .txn = txn,
                        .file = file});
      }
    }
    if (holders.empty()) {
      it = released_order_.erase(it);
    } else {
      ++it;
    }
  }
  return released;
}

bool LockTable::HoldsSufficient(FileId file, TxnId txn, LockMode mode) const {
  for (const Holder& h : HoldersOf(file)) {
    if (h.txn == txn) return Stronger(h.mode, mode) == h.mode;
  }
  return false;
}

bool LockTable::Holds(FileId file, TxnId txn) const {
  for (const Holder& h : HoldersOf(file)) {
    if (h.txn == txn) return true;
  }
  return false;
}

std::vector<LockTable::Holder> LockTable::GetHolders(FileId file) const {
  return HoldersOf(file);
}

void LockTable::GetHolders(FileId file, std::vector<Holder>* out) const {
  const std::vector<Holder>& holders = HoldersOf(file);
  out->assign(holders.begin(), holders.end());
}

std::vector<TxnId> LockTable::ConflictingHolders(FileId file, TxnId txn,
                                                 LockMode mode) const {
  std::vector<TxnId> result;
  ConflictingHolders(file, txn, mode, &result);
  return result;
}

void LockTable::ConflictingHolders(FileId file, TxnId txn, LockMode mode,
                                   std::vector<TxnId>* out) const {
  out->clear();
  for (const Holder& h : HoldersOf(file)) {
    if (h.txn != txn && !Compatible(h.mode, mode)) out->push_back(h.txn);
  }
}

size_t LockTable::NumHeldBy(TxnId txn) const {
  size_t count = 0;
  for (const auto& holders : holders_) {
    for (const Holder& h : holders) {
      if (h.txn == txn) ++count;
    }
  }
  return count;
}

}  // namespace wtpgsched
