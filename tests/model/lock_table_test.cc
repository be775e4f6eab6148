#include "lock/lock_table.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

TEST(LockTableTest, GrantOnFreeFile) {
  LockTable table;
  EXPECT_TRUE(table.CanGrant(0, 1, kX));
  table.Grant(0, 1, kX);
  EXPECT_TRUE(table.Holds(0, 1));
  EXPECT_TRUE(table.HoldsSufficient(0, 1, kX));
}

TEST(LockTableTest, SharedLocksCoexist) {
  LockTable table;
  table.Grant(0, 1, kS);
  EXPECT_TRUE(table.CanGrant(0, 2, kS));
  table.Grant(0, 2, kS);
  EXPECT_EQ(table.HoldersOf(0).size(), 2u);
}

TEST(LockTableTest, ExclusiveBlocksOthers) {
  LockTable table;
  table.Grant(0, 1, kX);
  EXPECT_FALSE(table.CanGrant(0, 2, kS));
  EXPECT_FALSE(table.CanGrant(0, 2, kX));
}

TEST(LockTableTest, SharedBlocksExclusive) {
  LockTable table;
  table.Grant(0, 1, kS);
  EXPECT_FALSE(table.CanGrant(0, 2, kX));
}

TEST(LockTableTest, OwnLockDoesNotBlockUpgrade) {
  LockTable table;
  table.Grant(0, 1, kS);
  EXPECT_TRUE(table.CanGrant(0, 1, kX));  // Sole holder may upgrade.
  table.Grant(0, 1, kX);
  EXPECT_TRUE(table.HoldsSufficient(0, 1, kX));
}

TEST(LockTableTest, UpgradeBlockedByOtherSharer) {
  LockTable table;
  table.Grant(0, 1, kS);
  table.Grant(0, 2, kS);
  EXPECT_FALSE(table.CanGrant(0, 1, kX));
}

TEST(LockTableTest, HoldsSufficientModeAware) {
  LockTable table;
  table.Grant(0, 1, kS);
  EXPECT_TRUE(table.HoldsSufficient(0, 1, kS));
  EXPECT_FALSE(table.HoldsSufficient(0, 1, kX));
  EXPECT_FALSE(table.HoldsSufficient(1, 1, kS));  // Different file.
}

TEST(LockTableTest, ReleaseAllReturnsFiles) {
  LockTable table;
  table.Grant(0, 1, kX);
  table.Grant(3, 1, kS);
  table.Grant(3, 2, kS);
  std::vector<FileId> released = table.ReleaseAll(1);
  std::sort(released.begin(), released.end());
  EXPECT_EQ(released, (std::vector<FileId>{0, 3}));
  EXPECT_FALSE(table.Holds(0, 1));
  EXPECT_TRUE(table.Holds(3, 2));  // Other holder unaffected.
  EXPECT_TRUE(table.CanGrant(0, 5, kX));
}

TEST(LockTableTest, ReleaseAllOnEmptyIsNoop) {
  LockTable table;
  EXPECT_TRUE(table.ReleaseAll(9).empty());
}

TEST(LockTableTest, ForceGrantIgnoresCompatibility) {
  LockTable table;
  table.Grant(0, 1, kX);
  table.ForceGrant(0, 2, kX);  // NODC: conflicting X holders coexist.
  EXPECT_EQ(table.HoldersOf(0).size(), 2u);
  std::vector<FileId> released = table.ReleaseAll(2);
  EXPECT_EQ(released, (std::vector<FileId>{0}));
  EXPECT_TRUE(table.Holds(0, 1));
}

TEST(LockTableTest, ConflictingHolders) {
  LockTable table;
  table.Grant(0, 1, kS);
  table.Grant(0, 2, kS);
  std::vector<TxnId> conflicting = {7};  // Cleared before filling.
  table.ConflictingHolders(0, 3, kS, &conflicting);
  EXPECT_TRUE(conflicting.empty());
  table.ConflictingHolders(0, 3, kX, &conflicting);
  std::sort(conflicting.begin(), conflicting.end());
  EXPECT_EQ(conflicting, (std::vector<TxnId>{1, 2}));
  // The requester itself is never reported.
  table.ConflictingHolders(0, 1, kX, &conflicting);
  EXPECT_EQ(conflicting, (std::vector<TxnId>{2}));
}

TEST(LockTableTest, Counters) {
  LockTable table;
  table.Grant(0, 1, kX);
  table.Grant(1, 1, kS);
  table.Grant(1, 2, kS);
  EXPECT_EQ(table.num_locked_files(), 2u);
  EXPECT_EQ(table.NumHeldBy(1), 2u);
  EXPECT_EQ(table.NumHeldBy(2), 1u);
  EXPECT_EQ(table.NumHeldBy(3), 0u);
}

TEST(LockTableTest, RegrantSameModeIdempotent) {
  LockTable table;
  table.Grant(0, 1, kX);
  table.Grant(0, 1, kX);
  EXPECT_EQ(table.HoldersOf(0).size(), 1u);
}

// Files are looked up through a FileId -> slot index, so a sparse id near
// the top of the FileId range costs one slot, like file 0 does.
TEST(LockTableTest, SparseFileIdsShareNothing) {
  constexpr FileId kHigh = 1'999'999'999;
  LockTable table;
  EXPECT_TRUE(table.HoldersOf(kHigh).empty());
  table.Grant(kHigh, 1, kS);
  table.Grant(7, 1, kX);
  table.Grant(0, 2, kS);
  table.Grant(kHigh, 2, kS);
  EXPECT_FALSE(table.CanGrant(kHigh, 3, kX));
  EXPECT_TRUE(table.CanGrant(kHigh, 3, kS));
  EXPECT_FALSE(table.CanGrant(7, 2, kS));
  EXPECT_TRUE(table.CanGrant(0, 1, kS));
  EXPECT_TRUE(table.HoldersOf(1).empty());
  EXPECT_TRUE(table.HoldersOf(kInvalidFile).empty());
  EXPECT_EQ(table.HoldersOf(kHigh).size(), 2u);
  EXPECT_EQ(table.num_locked_files(), 3u);
  EXPECT_EQ(table.NumHeldBy(1), 2u);
  EXPECT_EQ(table.NumHeldBy(2), 2u);

  // Upgrade on the high file once the other sharer is gone.
  std::vector<FileId> released = table.ReleaseAll(2);
  std::sort(released.begin(), released.end());
  EXPECT_EQ(released, (std::vector<FileId>{0, kHigh}));
  EXPECT_TRUE(table.CanGrant(kHigh, 1, kX));
  table.Grant(kHigh, 1, kX);
  EXPECT_TRUE(table.HoldsSufficient(kHigh, 1, kX));
  EXPECT_EQ(table.HoldersOf(kHigh).size(), 1u);
  EXPECT_TRUE(table.HoldersOf(0).empty());
  EXPECT_EQ(table.num_locked_files(), 2u);

  released = table.ReleaseAll(1);
  std::sort(released.begin(), released.end());
  EXPECT_EQ(released, (std::vector<FileId>{7, kHigh}));
  EXPECT_EQ(table.num_locked_files(), 0u);
  EXPECT_EQ(table.NumHeldBy(1), 0u);
  EXPECT_TRUE(table.CanGrant(kHigh, 4, kX));
  EXPECT_TRUE(table.CanGrant(7, 4, kX));
}

TEST(LockTableDeathTest, IncompatibleGrantDies) {
  LockTable table;
  table.Grant(0, 1, kX);
  EXPECT_DEATH(table.Grant(0, 2, kX), "incompatible");
}

}  // namespace
}  // namespace wtpgsched
