#ifndef WTPG_SCHED_LOCK_LOCK_TABLE_H_
#define WTPG_SCHED_LOCK_LOCK_TABLE_H_

#include <cstddef>

#include <unordered_map>
#include <vector>

#include "model/lock_mode.h"
#include "model/types.h"
#include "trace/trace_recorder.h"
#include "util/file_index.h"

namespace wtpgsched {

// File-granule lock table: holders per file (several S holders, or one X
// holder). The table records who holds what; wait-queue policy lives in the
// machine, and grant policy in the schedulers.
//
// ForceGrant() records a lock regardless of compatibility — NODC uses it to
// model "grant any lock at any time" while release bookkeeping still works.
//
// Holder lists live in a pool indexed by a FileIndex slot, taken on a
// file's first grant, so the table grows with the files a run locks, not
// with the FileId universe. A hashed shadow of the locked-file set is kept
// solely to preserve ReleaseAll's historical iteration order (see
// released_order_ below); queries never touch it.
class LockTable {
 public:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  LockTable() = default;

  // True when `txn` could be granted `mode` on `file` right now: every other
  // current holder's mode must be compatible. A transaction's own held lock
  // never conflicts with its upgrade request (upgrade succeeds if no other
  // holder conflicts with the requested mode).
  bool CanGrant(FileId file, TxnId txn, LockMode mode) const {
    for (const Holder& h : HoldersOf(file)) {
      if (h.txn != txn && !Compatible(h.mode, mode)) return false;
    }
    return true;
  }

  // Records the grant (or upgrade). Requires CanGrant().
  void Grant(FileId file, TxnId txn, LockMode mode);

  // Records the grant without any compatibility check (NODC).
  void ForceGrant(FileId file, TxnId txn, LockMode mode);

  // Releases all locks held by `txn`; returns the affected files.
  std::vector<FileId> ReleaseAll(TxnId txn);

  // True if `txn` holds a lock on `file` at least as strong as `mode`.
  bool HoldsSufficient(FileId file, TxnId txn, LockMode mode) const;

  bool Holds(FileId file, TxnId txn) const;

  // Current holders of `file` (empty if unlocked). The reference stays
  // valid only until the next mutation.
  const std::vector<Holder>& HoldersOf(FileId file) const {
    const int32_t slot = slots_.Find(file);
    return slot == FileIndex::kAbsent ? kNoHolders
                                      : holders_[static_cast<size_t>(slot)];
  }

  // Holders (other than `txn`) whose mode conflicts with `mode`; clears and
  // fills *out.
  void ConflictingHolders(FileId file, TxnId txn, LockMode mode,
                          std::vector<TxnId>* out) const;

  // Number of files currently locked by anyone.
  size_t num_locked_files() const { return released_order_.size(); }
  // Number of locks held by `txn`.
  size_t NumHeldBy(TxnId txn) const;

  // When set (and enabled), grants and releases emit kLockGrant /
  // kLockRelease trace events — the ground truth of lock-state changes,
  // independent of decision-level events the machine records.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  static inline const std::vector<Holder> kNoHolders;
  // Holder lists are tiny (bounded by active transactions); linear scans.
  // Indexed by slots_.Find(file). Emptied lists keep slot and capacity.
  FileIndex slots_;
  std::vector<std::vector<Holder>> holders_;
  // Order shadow: the set of currently locked files, fed the exact insert /
  // erase sequence the pre-dense unordered_map keyed storage received, so
  // ReleaseAll walks files in the identical (libstdc++ hash-order)
  // sequence. The order is observable downstream — released files wake
  // waiters in order, and waiters queue FIFO on the control node — so
  // committed goldens pin it. Only ReleaseAll iterates this map.
  std::unordered_map<FileId, char> released_order_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_LOCK_LOCK_TABLE_H_
