#ifndef WTPG_SCHED_SCHED_PENDING_INDEX_H_
#define WTPG_SCHED_SCHED_PENDING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/lock_mode.h"
#include "model/transaction.h"
#include "model/types.h"
#include "util/file_index.h"

namespace wtpgsched {

// The declared-but-ungranted accesses of the admitted transactions, per
// file: one entry per (file, transaction) pair from admission until the
// lock is recorded or the incarnation ends. C2PL, GOW and LOW read the
// conflicters a grant orders behind the grantee from it, LOW its admission
// bound too.
class PendingIndex {
 public:
  struct Access {
    TxnId txn;
    LockMode mode;  // The declared (strongest) mode for the file.
  };

  // One file's entries plus the count of exclusive-mode ones. With the
  // two-mode S/X lattice a request conflicts with every entry when it is X
  // and with exactly the X entries when it is S, so the running count
  // collapses per-file conflict counting — and LOW's admission bound —
  // from O(P) scans to O(1) arithmetic.
  struct List {
    std::vector<Access> items;  // Sorted by TxnId.
    int32_t x_count = 0;
  };

  // Enters every declared access of `txn` (at admission).
  void Add(const Transaction& txn);
  // Drops txn's entry for `file` (at grant); a no-op when absent.
  void Remove(FileId file, TxnId txn);
  // Drops every entry of `txn` (at commit or abort).
  void RemoveAll(const Transaction& txn);

  // The entries of `file`, valid until the next mutation.
  const List& Of(FileId file) const {
    const int32_t slot = slots_.Find(file);
    return slot == FileIndex::kAbsent ? kEmpty
                                      : lists_[static_cast<size_t>(slot)];
  }
  // txn's entry for `file`, or nullptr (one binary search).
  const Access* Find(FileId file, TxnId txn) const;

  // Transactions other than `requester` with an entry for `file` whose mode
  // conflicts with `mode`, ascending (the C(q) candidates); clears *out.
  // The count needs no list.
  void PendingConflicters(FileId file, TxnId requester, LockMode mode,
                          std::vector<TxnId>* out) const;
  size_t CountPendingConflicters(FileId file, TxnId requester,
                                 LockMode mode) const;

 private:
  // Indexed by slots_.Find(file), a slot taken when an admitted transaction
  // first declares the file.
  FileIndex slots_;
  std::vector<List> lists_;
  static const List kEmpty;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SCHED_PENDING_INDEX_H_
