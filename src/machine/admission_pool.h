#ifndef WTPG_SCHED_MACHINE_ADMISSION_POOL_H_
#define WTPG_SCHED_MACHINE_ADMISSION_POOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "model/transaction.h"
#include "model/types.h"

namespace wtpgsched {

// The parked startups, in pool order, each filed under its admission class:
// its declared (file, mode) set plus its priority. Every scheduler decides
// the members of a class alike (Scheduler's contract), so a control-node
// sweep decides each class present once instead of each member
// (Machine::RetestBatch).
//
// The pool is a doubly linked list over the members, so parking, admitting
// and moving the front of the pool behind its back each cost O(1). A
// transaction keeps its class for life: its declarations and priority never
// change.
class AdmissionPool {
 public:
  struct Class {
    int priority = 0;
    size_t members = 0;  // Parked members.
    // The scheduler's admission epoch when a member was last refused
    // (kBlock or kDelay); the class stays refused while it is current.
    uint64_t refused_epoch = kNever;

    // Scratch of the machine's sweep, valid while `batch` is its batch.
    uint64_t batch = 0;
    size_t behind = 0;     // Members at or behind the batch's end.
    size_t ahead = 0;      // Members in the batch not yet passed.
    bool refused = false;  // Refused for the rest of the batch.

    const std::vector<uint64_t>* key = nullptr;  // Owned by index_.
    uint32_t generation = 0;  // Counts the classes the slot has held.
  };
  static constexpr uint64_t kNever = ~uint64_t{0};

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TxnId front() const { return head_; }
  TxnId back() const { return tail_; }
  // The member after `id`, kInvalidTxn after the back.
  TxnId next(TxnId id) const { return LinkOf(id).next; }

  // The class of member `id`.
  Class& ClassOf(TxnId id) { return classes_[LinkOf(id).cls]; }
  // Calls visit(class) for every class with members.
  template <typename Visit>
  void ForEachClass(Visit&& visit) {
    for (Class& c : classes_) {
      if (c.members > 0) visit(c);
    }
  }

  // Appends `txn` at the back, filed under its class.
  void PushBack(const Transaction& txn);
  // Removes member `id` (admitted).
  void Erase(TxnId id);
  // Moves the front member to the back.
  void MoveFrontToBack();
  // Moves the members ahead of member `first` behind the back, in their
  // order: [A][first .. back] becomes [first .. back][A].
  void RotateTo(TxnId first);

 private:
  // A transaction's place in the pool and its class, which it keeps while
  // the class's slot still holds that class (`generation`).
  struct Link {
    TxnId prev = kInvalidTxn;
    TxnId next = kInvalidTxn;
    uint32_t cls = 0;
    uint32_t generation = 0;
  };
  struct KeyHash {
    size_t operator()(const std::vector<uint64_t>& key) const;
  };

  Link& LinkOf(TxnId id) { return links_[static_cast<size_t>(id - 1)]; }
  const Link& LinkOf(TxnId id) const {
    return links_[static_cast<size_t>(id - 1)];
  }
  // The class of `txn`'s lock set and priority, created when absent.
  uint32_t Intern(const Transaction& txn);
  void Append(TxnId id);
  void Unlink(TxnId id);

  // Indexed by TxnId - 1; the list links are valid for members only.
  std::vector<Link> links_;
  TxnId head_ = kInvalidTxn;
  TxnId tail_ = kInvalidTxn;
  size_t size_ = 0;
  std::vector<Class> classes_;
  // An emptied class keeps its slot until the empty ones outnumber the
  // others, so a lock set that parks again finds its class.
  size_t empty_classes_ = 0;
  std::vector<uint32_t> free_classes_;  // Slots of dropped classes.
  std::unordered_map<std::vector<uint64_t>, uint32_t, KeyHash> index_;
  std::vector<uint64_t> key_;  // Intern scratch.
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_ADMISSION_POOL_H_
