#include "util/open_table.h"

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

// Home bucket of `key` in a table of 2^log2_buckets buckets: the top bits
// of the Fibonacci product, as OpenTable computes it.
size_t HomeOf(uint64_t key, int log2_buckets) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >>
                             (64 - log2_buckets));
}

// The first `count` keys, counting up from `from`, whose home bucket in a
// 16-bucket table is `bucket`.
std::vector<uint64_t> KeysWithHome(size_t bucket, size_t count,
                                   uint64_t from = 0) {
  std::vector<uint64_t> keys;
  for (uint64_t key = from; keys.size() < count; ++key) {
    if (HomeOf(key, 4) == bucket) keys.push_back(key);
  }
  return keys;
}

template <typename Key, typename Value>
std::map<Key, Value> Contents(const OpenTable<Key, Value>& table) {
  std::map<Key, Value> contents;
  table.ForEach([&](Key key, const Value& value) {
    EXPECT_TRUE(contents.emplace(key, value).second) << key;
  });
  return contents;
}

TEST(OpenTableTest, EmptyTableFindsNothing) {
  OpenTable<uint64_t, int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(OpenTable<uint64_t, int>::kEmptyKey), nullptr);
  EXPECT_FALSE(table.Erase(7));
  EXPECT_EQ(table.LongestProbe(), 0u);
  *table.Insert(7).first = 3;
  EXPECT_EQ(table.Find(OpenTable<uint64_t, int>::kEmptyKey), nullptr);
}

TEST(OpenTableTest, InsertReportsWhetherTheKeyWasNew) {
  OpenTable<uint32_t, int> table;
  auto [value, inserted] = table.Insert(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // Value-initialized.
  *value = 42;
  auto [again, inserted_again] = table.Insert(5);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 42);
  EXPECT_EQ(table.size(), 1u);
}

// Three keys homed in the last bucket fill it and wrap to buckets 0 and 1;
// a key homed in bucket 0 is displaced to bucket 2. Erasing the first key
// shifts each of the others back by one bucket, across the array's end.
TEST(OpenTableTest, BackwardShiftEraseWrapsPastTheEnd) {
  const std::vector<uint64_t> last = KeysWithHome(15, 3);
  const uint64_t first = KeysWithHome(0, 1)[0];
  OpenTable<uint64_t, int> table;
  for (int i = 0; i < 3; ++i) *table.Insert(last[i]).first = i;
  *table.Insert(first).first = 3;
  EXPECT_EQ(table.LongestProbe(), 3u);
  ASSERT_TRUE(table.Erase(last[0]));
  EXPECT_EQ(table.LongestProbe(), 2u);
  EXPECT_EQ(table.Find(last[0]), nullptr);
  ASSERT_NE(table.Find(last[1]), nullptr);
  EXPECT_EQ(*table.Find(last[1]), 1);
  ASSERT_NE(table.Find(last[2]), nullptr);
  EXPECT_EQ(*table.Find(last[2]), 2);
  ASSERT_NE(table.Find(first), nullptr);
  EXPECT_EQ(*table.Find(first), 3);
  // Erasing the wrapped middle entry pulls the bucket-0 key back home.
  ASSERT_TRUE(table.Erase(last[2]));
  EXPECT_EQ(table.LongestProbe(), 1u);
  EXPECT_EQ(*table.Find(first), 3);
  EXPECT_EQ(*table.Find(last[1]), 1);
  EXPECT_EQ(table.size(), 2u);
}

// Random insert/find/erase sequences against std::unordered_map. A small
// key space keeps the table dense with long probe runs and frequent
// erasures inside them; the table grows and shrinks through many sizes.
template <typename Key>
void CheckAgainstUnorderedMap(uint32_t seed, Key max_key, int ops) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Key> key_of(0, max_key);
  std::uniform_int_distribution<int> op_of(0, 9);
  OpenTable<Key, int64_t> table;
  std::unordered_map<Key, int64_t> expected;
  for (int i = 0; i < ops; ++i) {
    const Key key = key_of(rng);
    const int op = op_of(rng);
    if (op < 5) {
      const auto [value, inserted] = table.Insert(key);
      const auto [it, expected_inserted] = expected.try_emplace(key, 0);
      ASSERT_EQ(inserted, expected_inserted) << key;
      ASSERT_EQ(*value, it->second) << key;
      *value = it->second = i;
    } else if (op < 8) {
      ASSERT_EQ(table.Erase(key), expected.erase(key) == 1) << key;
    } else {
      const int64_t* value = table.Find(key);
      const auto it = expected.find(key);
      ASSERT_EQ(value != nullptr, it != expected.end()) << key;
      if (value != nullptr) {
        ASSERT_EQ(*value, it->second) << key;
      }
    }
    ASSERT_EQ(table.size(), expected.size());
  }
  const std::map<Key, int64_t> contents = Contents(table);
  ASSERT_EQ(contents.size(), expected.size());
  for (const auto& [key, value] : expected) {
    ASSERT_EQ(contents.at(key), value) << key;
    ASSERT_EQ(*table.Find(key), value) << key;
  }
}

TEST(OpenTableTest, MatchesUnorderedMapOnDenseKeys) {
  CheckAgainstUnorderedMap<uint32_t>(1, 300, 200'000);
  CheckAgainstUnorderedMap<uint64_t>(2, 60, 50'000);
}

TEST(OpenTableTest, MatchesUnorderedMapOnSparseKeys) {
  CheckAgainstUnorderedMap<uint64_t>(3, ~0ull - 1, 100'000);
  CheckAgainstUnorderedMap<uint32_t>(4, ~0u - 1, 100'000);
}

// Erasing everything leaves a table that finds nothing and takes new keys.
TEST(OpenTableTest, EraseAllThenReuse) {
  OpenTable<uint64_t, int> table;
  for (uint64_t key = 0; key < 1000; ++key) *table.Insert(key * 7).first = 1;
  for (uint64_t key = 0; key < 1000; ++key) ASSERT_TRUE(table.Erase(key * 7));
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(Contents(table).empty());
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(table.Find(key * 7), nullptr);
  }
  EXPECT_TRUE(table.Insert(5).second);
  EXPECT_EQ(table.size(), 1u);
}

}  // namespace
}  // namespace wtpgsched
