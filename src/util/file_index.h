#ifndef WTPG_SCHED_UTIL_FILE_INDEX_H_
#define WTPG_SCHED_UTIL_FILE_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wtpgsched {

// Maps file ids (FileId, a non-negative int32) to dense slots 0, 1, 2, ...
// in first-touch order; slots are never freed. Per-file state kept in a
// slot-indexed pool thus grows with the files a run touches, not with the
// file universe (DESIGN.md §9). Open addressing with linear probing, load
// at most 1/2, home bucket from the top bits of a Fibonacci product (as in
// Wtpg::BucketFor); not std::unordered_map, whose node chase would cost
// the saturated admission retests' millions of lookups.
class FileIndex {
 public:
  static constexpr int32_t kAbsent = -1;

  // Slot of `file`, or kAbsent when it was never inserted. Negative ids
  // (kInvalidFile included) are always absent.
  int32_t Find(int32_t file) const {
    if (file < 0 || buckets_.empty()) return kAbsent;
    return buckets_[Probe(file)].slot;
  }

  // Slot of `file` (which must be >= 0); a first touch takes slot size().
  int32_t FindOrInsert(int32_t file) {
    if ((size_ + 1) * 2 > buckets_.size()) Grow();
    Bucket& bucket = buckets_[Probe(file)];
    if (bucket.file == kEmpty) {
      bucket = Bucket{file, static_cast<int32_t>(size_++)};
    }
    return bucket.slot;
  }

  // Distinct files inserted so far.
  size_t size() const { return size_; }

  // Longest probe sequence of any inserted file (a hash-quality check).
  size_t LongestProbe() const {
    size_t longest = 0;
    for (size_t idx = 0; idx < buckets_.size(); ++idx) {
      if (buckets_[idx].file == kEmpty) continue;
      const size_t home = HomeOf(buckets_[idx].file);
      longest = std::max(longest, ((idx - home) & mask_) + 1);
    }
    return longest;
  }

 private:
  static constexpr int32_t kEmpty = -1;

  struct Bucket {
    int32_t file = kEmpty;
    int32_t slot = kAbsent;  // kAbsent while the bucket is empty.
  };

  size_t HomeOf(int32_t file) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(file) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // The bucket holding `file`, or the empty bucket ending its probe run.
  size_t Probe(int32_t file) const {
    size_t idx = HomeOf(file);
    while (buckets_[idx].file != file && buckets_[idx].file != kEmpty) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }

  // Allocates 16 buckets on the first insert (a table that is never
  // written costs no allocation), then doubles.
  void Grow() {
    std::vector<Bucket> old(std::max<size_t>(16, buckets_.size() * 2));
    old.swap(buckets_);
    mask_ = buckets_.size() - 1;
    shift_ = 64 - std::countr_zero(buckets_.size());
    for (const Bucket& bucket : old) {
      if (bucket.file != kEmpty) buckets_[Probe(bucket.file)] = bucket;
    }
  }

  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(buckets_.size()).
  size_t size_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_FILE_INDEX_H_
