#ifndef WTPG_SCHED_UTIL_FILE_INDEX_H_
#define WTPG_SCHED_UTIL_FILE_INDEX_H_

#include <cstddef>
#include <cstdint>

#include "util/open_table.h"

namespace wtpgsched {

// Maps file ids (FileId, a non-negative int32) to dense slots 0, 1, 2, ...
// in first-touch order; slots are never freed. Per-file state kept in a
// slot-indexed pool thus grows with the files a run touches, not with the
// file universe (DESIGN.md §9). An OpenTable with 8-byte buckets: the
// saturated admission retests look files up millions of times.
class FileIndex {
 public:
  static constexpr int32_t kAbsent = -1;

  // Slot of `file`, or kAbsent when it was never inserted. Negative ids
  // (kInvalidFile included) are always absent.
  int32_t Find(int32_t file) const {
    if (file < 0) return kAbsent;
    const int32_t* slot = slots_.Find(static_cast<uint32_t>(file));
    return slot == nullptr ? kAbsent : *slot;
  }

  // Slot of `file` (which must be >= 0); a first touch takes slot size().
  int32_t FindOrInsert(int32_t file) {
    const auto [slot, inserted] = slots_.Insert(static_cast<uint32_t>(file));
    if (inserted) *slot = static_cast<int32_t>(slots_.size() - 1);
    return *slot;
  }

  // Distinct files inserted so far.
  size_t size() const { return slots_.size(); }

  // Longest probe sequence of any inserted file (a hash-quality check).
  size_t LongestProbe() const { return slots_.LongestProbe(); }

 private:
  OpenTable<uint32_t, int32_t> slots_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_FILE_INDEX_H_
