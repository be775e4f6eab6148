#include "machine/admission_pool.h"

#include "util/logging.h"

namespace wtpgsched {

size_t AdmissionPool::KeyHash::operator()(
    const std::vector<uint64_t>& key) const {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const uint64_t word : key) {
    hash = (hash ^ word) * 0x100000001b3ull;
    hash ^= hash >> 29;
  }
  return static_cast<size_t>(hash);
}

uint32_t AdmissionPool::Intern(const Transaction& txn) {
  key_.clear();
  key_.push_back(static_cast<uint32_t>(txn.priority));
  for (const auto& [file, mode] : txn.lock_modes()) {
    key_.push_back(static_cast<uint64_t>(static_cast<uint32_t>(file)) << 1 |
                   (mode == LockMode::kExclusive ? 1u : 0u));
  }
  if (const auto it = index_.find(key_); it != index_.end()) {
    return it->second;
  }
  if (2 * empty_classes_ > index_.size()) {
    // The empty classes outnumber the others: drop them.
    for (size_t slot = 0; slot < classes_.size(); ++slot) {
      Class& c = classes_[slot];
      if (c.key == nullptr || c.members > 0) continue;
      index_.erase(index_.find(*c.key));
      c.key = nullptr;
      ++c.generation;
      free_classes_.push_back(static_cast<uint32_t>(slot));
    }
    empty_classes_ = 0;
  }
  if (free_classes_.empty()) {
    free_classes_.push_back(static_cast<uint32_t>(classes_.size()));
    classes_.emplace_back();
  }
  const uint32_t slot = free_classes_.back();
  free_classes_.pop_back();
  Class& c = classes_[slot];
  c.priority = txn.priority;
  c.key = &index_.emplace(key_, slot).first->first;
  c.refused_epoch = kNever;
  ++c.generation;
  ++empty_classes_;  // Until its first member parks.
  return slot;
}

void AdmissionPool::Append(TxnId id) {
  Link& link = LinkOf(id);
  link.prev = tail_;
  link.next = kInvalidTxn;
  if (tail_ == kInvalidTxn) {
    head_ = id;
  } else {
    LinkOf(tail_).next = id;
  }
  tail_ = id;
}

void AdmissionPool::Unlink(TxnId id) {
  const Link& link = LinkOf(id);
  if (link.prev == kInvalidTxn) {
    head_ = link.next;
  } else {
    LinkOf(link.prev).next = link.next;
  }
  if (link.next == kInvalidTxn) {
    tail_ = link.prev;
  } else {
    LinkOf(link.next).prev = link.prev;
  }
}

void AdmissionPool::PushBack(const Transaction& txn) {
  const TxnId id = txn.id();
  WTPG_CHECK_GE(id, 1);
  if (links_.size() < static_cast<size_t>(id)) {
    links_.resize(static_cast<size_t>(id));
  }
  Link& link = LinkOf(id);
  if (link.generation == 0 ||
      classes_[link.cls].generation != link.generation) {
    link.cls = Intern(txn);
    link.generation = classes_[link.cls].generation;
  }
  if (classes_[link.cls].members++ == 0) --empty_classes_;
  Append(id);
  ++size_;
}

void AdmissionPool::Erase(TxnId id) {
  WTPG_CHECK_GT(size_, 0u);
  if (--ClassOf(id).members == 0) ++empty_classes_;
  Unlink(id);
  --size_;
}

void AdmissionPool::MoveFrontToBack() {
  const TxnId id = head_;
  if (id == tail_) return;
  Unlink(id);
  Append(id);
}

void AdmissionPool::RotateTo(TxnId first) {
  if (first == head_) return;
  const TxnId a_first = head_;
  const TxnId a_last = LinkOf(first).prev;
  LinkOf(tail_).next = a_first;
  LinkOf(a_first).prev = tail_;
  LinkOf(a_last).next = kInvalidTxn;
  LinkOf(first).prev = kInvalidTxn;
  head_ = first;
  tail_ = a_last;
}

}  // namespace wtpgsched
