#include "util/file_index.h"

#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

TEST(FileIndexTest, SlotsFollowFirstTouchOrder) {
  FileIndex index;
  EXPECT_EQ(index.FindOrInsert(1'999'999'999), 0);
  EXPECT_EQ(index.FindOrInsert(7), 1);
  EXPECT_EQ(index.FindOrInsert(0), 2);
  // A repeat touch returns the existing slot and takes no new one.
  EXPECT_EQ(index.FindOrInsert(7), 1);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.Find(1'999'999'999), 0);
  EXPECT_EQ(index.Find(7), 1);
  EXPECT_EQ(index.Find(0), 2);
}

TEST(FileIndexTest, UntouchedAndNegativeIdsAreAbsent) {
  FileIndex index;  // Allocates nothing until the first insert.
  EXPECT_EQ(index.Find(0), FileIndex::kAbsent);
  EXPECT_EQ(index.Find(-1), FileIndex::kAbsent);  // kInvalidFile.
  EXPECT_EQ(index.LongestProbe(), 0u);
  index.FindOrInsert(0);
  index.FindOrInsert(5);
  EXPECT_EQ(index.Find(1), FileIndex::kAbsent);
  EXPECT_EQ(index.Find(-1), FileIndex::kAbsent);
  EXPECT_EQ(index.Find(std::numeric_limits<int32_t>::min()),
            FileIndex::kAbsent);
  EXPECT_EQ(index.Find(std::numeric_limits<int32_t>::max()),
            FileIndex::kAbsent);
  EXPECT_EQ(index.size(), 2u);
}

TEST(FileIndexTest, GrowsAcrossManyRandomIds) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int32_t> id(
      0, std::numeric_limits<int32_t>::max() - 1);
  FileIndex index;
  std::unordered_map<int32_t, int32_t> expected;
  while (expected.size() < 10'000) {
    const int32_t file = id(rng);
    const int32_t next = static_cast<int32_t>(expected.size());
    const int32_t slot = expected.try_emplace(file, next).first->second;
    EXPECT_EQ(index.FindOrInsert(file), slot) << file;
  }
  ASSERT_EQ(index.size(), expected.size());
  for (const auto& [file, slot] : expected) {
    ASSERT_EQ(index.Find(file), slot) << file;
  }
  // Ids never inserted stay absent after every doubling.
  int absent_checked = 0;
  while (absent_checked < 1000) {
    const int32_t file = id(rng);
    if (expected.count(file) != 0) continue;
    ASSERT_EQ(index.Find(file), FileIndex::kAbsent) << file;
    ++absent_checked;
  }
}

// The home bucket comes from the top bits of the Fibonacci product; low
// bits would give every id with the same residue the same home bucket.
TEST(FileIndexTest, ProbesStayShortForSequentialAndStridedIds) {
  constexpr int32_t kIds = 100'000;
  FileIndex sequential;
  for (int32_t file = 0; file < kIds; ++file) sequential.FindOrInsert(file);
  EXPECT_LE(sequential.LongestProbe(), 16u);
  FileIndex strided;
  for (int32_t i = 0; i < kIds; ++i) strided.FindOrInsert(i * 1024);
  EXPECT_LE(strided.LongestProbe(), 16u);
  for (int32_t i = 0; i < kIds; ++i) {
    ASSERT_EQ(strided.Find(i * 1024), i);
    ASSERT_EQ(strided.Find(i * 1024 + 1), FileIndex::kAbsent);
  }
}

}  // namespace
}  // namespace wtpgsched
