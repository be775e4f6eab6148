// AdmissionPool: pool order and per-class member counts through parks,
// removals and rotations, against a plain list of ids.

#include "machine/admission_pool.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace wtpgsched {
namespace {

// Transaction `id` writing `file`, at `priority`: its class is the pair.
std::unique_ptr<Transaction> Txn(TxnId id, FileId file, int priority = 0) {
  StepSpec step;
  step.file = file;
  step.access = LockMode::kExclusive;
  step.request_mode = LockMode::kExclusive;
  auto txn = std::make_unique<Transaction>(id, std::vector<StepSpec>{step});
  txn->priority = priority;
  return txn;
}

// The pool's members, front to back, checking the class counts.
std::vector<TxnId> Members(AdmissionPool& pool) {
  std::vector<TxnId> order;
  std::map<const AdmissionPool::Class*, size_t> counts;
  for (TxnId id = pool.front(); id != kInvalidTxn; id = pool.next(id)) {
    order.push_back(id);
    ++counts[&pool.ClassOf(id)];
  }
  EXPECT_EQ(order.size(), pool.size());
  if (!order.empty()) {
    EXPECT_EQ(order.back(), pool.back());
  }
  size_t classes = 0;
  pool.ForEachClass([&](AdmissionPool::Class& c) {
    ++classes;
    EXPECT_EQ(c.members, counts[&c]);
  });
  EXPECT_EQ(classes, counts.size());
  return order;
}

TEST(AdmissionPoolTest, FilesMembersByLockSetAndPriority) {
  std::vector<std::unique_ptr<Transaction>> txns;
  txns.push_back(Txn(1, 3));
  txns.push_back(Txn(2, 3));
  txns.push_back(Txn(3, 3, /*priority=*/1));
  txns.push_back(Txn(4, 5));
  AdmissionPool pool;
  for (const auto& txn : txns) pool.PushBack(*txn);
  EXPECT_EQ(&pool.ClassOf(1), &pool.ClassOf(2));
  EXPECT_NE(&pool.ClassOf(1), &pool.ClassOf(3));
  EXPECT_NE(&pool.ClassOf(1), &pool.ClassOf(4));
  EXPECT_EQ(Members(pool), (std::vector<TxnId>{1, 2, 3, 4}));
}

TEST(AdmissionPoolTest, RotationsMatchAList) {
  Rng rng(7);
  constexpr int kTxns = 60;
  std::vector<std::unique_ptr<Transaction>> txns;
  for (TxnId id = 1; id <= kTxns; ++id) {
    txns.push_back(Txn(id, static_cast<FileId>(rng.UniformInt(0, 4)),
                       static_cast<int>(rng.UniformInt(0, 1))));
  }
  AdmissionPool pool;
  std::vector<TxnId> expected;
  std::vector<TxnId> outside;  // Not parked.
  for (TxnId id = 1; id <= kTxns; ++id) outside.push_back(id);
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.NextDouble();
    if (expected.empty() || (roll < 0.35 && !outside.empty())) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(outside.size()) - 1));
      pool.PushBack(*txns[static_cast<size_t>(outside[i] - 1)]);
      expected.push_back(outside[i]);
      outside.erase(outside.begin() + static_cast<ptrdiff_t>(i));
    } else if (roll < 0.55) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(expected.size()) - 1));
      pool.Erase(expected[i]);
      outside.push_back(expected[i]);
      expected.erase(expected.begin() + static_cast<ptrdiff_t>(i));
    } else if (roll < 0.7) {
      pool.MoveFrontToBack();
      std::rotate(expected.begin(), expected.begin() + 1, expected.end());
    } else {
      const size_t count = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(expected.size()) - 1));
      pool.RotateTo(expected[count]);
      std::rotate(expected.begin(),
                  expected.begin() + static_cast<ptrdiff_t>(count),
                  expected.end());
    }
    ASSERT_EQ(Members(pool), expected) << "op " << op;
  }
}

}  // namespace
}  // namespace wtpgsched
