#ifndef WTPG_SCHED_UTIL_OPEN_TABLE_H_
#define WTPG_SCHED_UTIL_OPEN_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace wtpgsched {

// Hash table from an unsigned integer key to a value, for the hot lookups
// that std::unordered_map's node chase would slow down: the WTPG's node
// index and edge table and the per-file slot index (DESIGN.md §9).
//
// Open addressing with linear probing, load at most 1/2, home bucket from
// the top bits of a Fibonacci product (the low bits of the product depend
// only on the low bits of the key, so keys that differ only above them —
// a hub node's edges, strided file ids — would share a home bucket), 16
// buckets on the first insert (a table never written costs no allocation)
// and then doubling, backward-shift erase (no tombstones). The largest key
// marks an empty bucket and cannot be stored. Iteration is in bucket
// order, which is not insertion order.
template <typename Key, typename Value>
class OpenTable {
  static_assert(std::is_unsigned_v<Key>);

 public:
  // The empty-bucket marker: Find(kEmptyKey) is always absent.
  static constexpr Key kEmptyKey = std::numeric_limits<Key>::max();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The value stored under `key`, or nullptr. Valid until the next Insert
  // or Erase (either may move entries).
  const Value* Find(Key key) const {
    if (buckets_.empty()) return nullptr;
    const Bucket& bucket = buckets_[Probe(key)];
    return bucket.key == kEmptyKey ? nullptr : &bucket.value;
  }
  Value* Find(Key key) {
    return const_cast<Value*>(std::as_const(*this).Find(key));
  }

  // The value under `key` (which must not be kEmptyKey), inserting a
  // value-initialized one when absent; `second` tells which.
  std::pair<Value*, bool> Insert(Key key) {
    if ((size_ + 1) * 2 > buckets_.size()) Grow();
    Bucket& bucket = buckets_[Probe(key)];
    if (bucket.key != kEmptyKey) return {&bucket.value, false};
    bucket.key = key;
    bucket.value = Value{};
    ++size_;
    return {&bucket.value, true};
  }

  // Removes `key`; false when it was absent.
  bool Erase(Key key) {
    if (buckets_.empty()) return false;
    size_t hole = Probe(key);
    if (buckets_[hole].key == kEmptyKey) return false;
    --size_;
    // Backward-shift deletion: pull displaced entries into the hole so every
    // remaining entry stays reachable from its home bucket.
    for (size_t idx = (hole + 1) & mask_; buckets_[idx].key != kEmptyKey;
         idx = (idx + 1) & mask_) {
      if (((idx - HomeOf(buckets_[idx].key)) & mask_) >=
          ((idx - hole) & mask_)) {
        buckets_[hole] = std::move(buckets_[idx]);
        hole = idx;
      }
    }
    buckets_[hole].key = kEmptyKey;
    return true;
  }

  // Calls fn(key, value) for every entry, in bucket order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& bucket : buckets_) {
      if (bucket.key != kEmptyKey) fn(bucket.key, bucket.value);
    }
  }

  // The most buckets any lookup of a stored key visits (a hash-quality
  // check; 0 for an empty table).
  size_t LongestProbe() const {
    size_t longest = 0;
    for (size_t idx = 0; idx < buckets_.size(); ++idx) {
      if (buckets_[idx].key == kEmptyKey) continue;
      longest = std::max(longest,
                         ((idx - HomeOf(buckets_[idx].key)) & mask_) + 1);
    }
    return longest;
  }

 private:
  struct Bucket {
    Key key = kEmptyKey;
    Value value{};
  };

  size_t HomeOf(Key key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // The bucket holding `key`, or the empty bucket ending its probe run.
  size_t Probe(Key key) const {
    size_t idx = HomeOf(key);
    while (buckets_[idx].key != key && buckets_[idx].key != kEmptyKey) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }

  void Grow() {
    std::vector<Bucket> old(std::max<size_t>(16, buckets_.size() * 2));
    old.swap(buckets_);
    mask_ = buckets_.size() - 1;
    shift_ = 64 - std::countr_zero(buckets_.size());
    for (Bucket& bucket : old) {
      if (bucket.key == kEmptyKey) continue;
      buckets_[Probe(bucket.key)] = std::move(bucket);
    }
  }

  std::vector<Bucket> buckets_;  // Power-of-two sized; empty until used.
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(buckets_.size()).
  size_t size_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_OPEN_TABLE_H_
