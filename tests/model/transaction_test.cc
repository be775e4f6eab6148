#include "model/transaction.h"

#include <vector>

#include <gtest/gtest.h>

namespace wtpgsched {
namespace {

constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

// Pattern-1-shaped transaction: r(A:1) -> r(B:3) -> w(A:1), X-locks at the
// reads (the paper's Fig. 2 example T1).
Transaction MakeT1(TxnId id = 1) {
  return Transaction(id, {
                             {0, kS, kX, 1.0, 1.0},  // r(A:1), X-lock
                             {1, kS, kX, 3.0, 3.0},  // r(B:3), X-lock
                             {0, kX, kS, 1.0, 1.0},  // w(A:1)
                         });
}

// Fig. 2 example T2: r(C:1) -> w(A:1) -> w(C:1), X-locks throughout.
Transaction MakeT2(TxnId id = 2) {
  return Transaction(id, {
                             {2, kS, kX, 1.0, 1.0},  // r(C:1), X-lock
                             {0, kX, kX, 1.0, 1.0},  // w(A:1)
                             {2, kX, kS, 1.0, 1.0},  // w(C:1)
                         });
}

TEST(TransactionTest, BasicAccessors) {
  Transaction t = MakeT1();
  EXPECT_EQ(t.id(), 1);
  EXPECT_EQ(t.num_steps(), 3);
  EXPECT_EQ(t.state(), Transaction::State::kCreated);
  EXPECT_EQ(t.current_step(), 0);
}

TEST(TransactionTest, LockModesAreStrongestPerFile) {
  Transaction t = MakeT1();
  ASSERT_EQ(t.lock_modes().size(), 2u);
  EXPECT_EQ(t.LockModeOf(0), kX);  // Read + later write -> X.
  EXPECT_EQ(t.LockModeOf(1), kX);  // X requested at the read.
  // Iteration runs in ascending file order, whatever the step order.
  const Transaction t2 = MakeT2();
  std::vector<FileId> files;
  for (const auto& [file, mode] : t2.lock_modes()) files.push_back(file);
  EXPECT_EQ(files, (std::vector<FileId>{0, 2}));
}

TEST(TransactionTest, FirstStepFor) {
  Transaction t = MakeT1();
  EXPECT_EQ(t.FirstStepFor(0), 0);
  EXPECT_EQ(t.FirstStepFor(1), 1);
  EXPECT_EQ(t.FirstStepFor(99), -1);
}

TEST(TransactionTest, NeedsLockOnlyAtFirstTouch) {
  Transaction t = MakeT1();
  EXPECT_TRUE(t.NeedsLockAt(0));
  EXPECT_TRUE(t.NeedsLockAt(1));
  EXPECT_FALSE(t.NeedsLockAt(2));  // File 0 already locked at step 0.
}

TEST(TransactionTest, RequestModeAtFirstTouch) {
  Transaction t = MakeT1();
  EXPECT_EQ(t.RequestModeAt(0), kX);
  EXPECT_EQ(t.RequestModeAt(1), kX);
}

TEST(TransactionTest, ConflictsWithSharedFile) {
  Transaction t1 = MakeT1(1);
  Transaction t2 = MakeT2(2);
  EXPECT_TRUE(t1.ConflictsWith(t2));  // Both X on file 0 (A).
  EXPECT_TRUE(t2.ConflictsWith(t1));
}

TEST(TransactionTest, NoConflictWhenDisjoint) {
  Transaction t1 = MakeT1(1);
  Transaction t3(3, {{5, kS, kX, 1.0, 1.0}});
  EXPECT_FALSE(t1.ConflictsWith(t3));
}

TEST(TransactionTest, SharedReadsDoNotConflict) {
  Transaction a(1, {{7, kS, kS, 2.0, 2.0}});
  Transaction b(2, {{7, kS, kS, 2.0, 2.0}});
  EXPECT_FALSE(a.ConflictsWith(b));
}

TEST(TransactionTest, SharedVsExclusiveConflicts) {
  Transaction a(1, {{7, kS, kS, 2.0, 2.0}});
  Transaction b(2, {{7, kX, kX, 2.0, 2.0}});
  EXPECT_TRUE(a.ConflictsWith(b));
}

// The paper's Fig. 2 weight example: w(T1->T2) = 2 because T2 is blocked by
// T1 at its second step (w2(A:1)) and must still access 1 + 1 objects.
TEST(TransactionTest, Fig2WeightExample) {
  Transaction t1 = MakeT1(1);
  Transaction t2 = MakeT2(2);
  const int step = t2.FirstConflictingStep(t1);
  EXPECT_EQ(step, 1);  // w2(A:1) is T2's second step.
  EXPECT_DOUBLE_EQ(t2.DeclaredCostFrom(step), 2.0);  // w(T1 -> T2) = 2.
  // And w(T2 -> T1) = 5: T1 blocked at its first step, full cost remains.
  const int step1 = t1.FirstConflictingStep(t2);
  EXPECT_EQ(step1, 0);
  EXPECT_DOUBLE_EQ(t1.DeclaredCostFrom(step1), 5.0);
}

TEST(TransactionTest, DeclaredCostFromClampsAndSums) {
  Transaction t = MakeT1();
  EXPECT_DOUBLE_EQ(t.DeclaredTotalCost(), 5.0);
  EXPECT_DOUBLE_EQ(t.DeclaredCostFrom(-3), 5.0);
  EXPECT_DOUBLE_EQ(t.DeclaredCostFrom(1), 4.0);
  EXPECT_DOUBLE_EQ(t.DeclaredCostFrom(3), 0.0);
  EXPECT_DOUBLE_EQ(t.DeclaredCostFrom(100), 0.0);
}

TEST(TransactionTest, AdvanceStepAndRemaining) {
  Transaction t = MakeT1();
  EXPECT_DOUBLE_EQ(t.DeclaredRemainingCost(), 5.0);
  t.AdvanceStep();
  EXPECT_DOUBLE_EQ(t.DeclaredRemainingCost(), 4.0);
  t.AdvanceStep();
  t.AdvanceStep();
  EXPECT_TRUE(t.AllStepsDone());
  EXPECT_DOUBLE_EQ(t.DeclaredRemainingCost(), 0.0);
}

TEST(TransactionTest, ResetForRestart) {
  Transaction t = MakeT1();
  t.AdvanceStep();
  t.set_state(Transaction::State::kExecuting);
  t.ResetForRestart();
  EXPECT_EQ(t.current_step(), 0);
  EXPECT_EQ(t.restarts, 1);
  EXPECT_EQ(t.state(), Transaction::State::kCreated);
}

TEST(TransactionTest, FirstConflictingStepNoConflict) {
  Transaction t1 = MakeT1(1);
  Transaction t3(3, {{5, kS, kX, 1.0, 1.0}});
  EXPECT_EQ(t1.FirstConflictingStep(t3), -1);
}

TEST(TransactionTest, DebugStringMentionsSteps) {
  Transaction t = MakeT1();
  const std::string s = t.DebugString();
  EXPECT_NE(s.find("T1"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}

TEST(TransactionDeathTest, UncoveredLaterAccessFails) {
  // First touch requests only S, but a later step writes the same file.
  EXPECT_DEATH(Transaction(1, {{0, kS, kS, 1.0, 1.0}, {0, kX, kX, 1.0, 1.0}}),
               "does not cover");
}

}  // namespace
}  // namespace wtpgsched
