#include "analysis/serializability.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "util/random.h"

namespace wtpgsched {
namespace {

constexpr LockMode kS = LockMode::kShared;
constexpr LockMode kX = LockMode::kExclusive;

TEST(SerializabilityTest, EmptyLogIsSerializable) {
  ScheduleLog log;
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, SingleTransaction) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);
  log.RecordCommit(1, 0);
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, SerialHistoryOk) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);
  log.RecordAccess(1, 0, 1, kX, 20);
  log.RecordAccess(2, 0, 0, kX, 30);
  log.RecordAccess(2, 0, 1, kX, 40);
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 0);
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, DetectsWriteWriteCycle) {
  // T1 writes A before T2, but T2 writes B before T1: cycle.
  ScheduleLog log;
  log.RecordAccess(1, 0, /*file=*/0, kX, 10);
  log.RecordAccess(2, 0, /*file=*/1, kX, 15);
  log.RecordAccess(2, 0, /*file=*/0, kX, 20);
  log.RecordAccess(1, 0, /*file=*/1, kX, 25);
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 0);
  const SerializabilityResult result = CheckConflictSerializability(log);
  EXPECT_FALSE(result.serializable);
  EXPECT_GE(result.cycle.size(), 2u);
  EXPECT_NE(result.ToString().find("NOT"), std::string::npos);
}

TEST(SerializabilityTest, SharedReadsNeverConflict) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kS, 10);
  log.RecordAccess(2, 0, 0, kS, 15);
  log.RecordAccess(1, 0, 1, kS, 20);
  log.RecordAccess(2, 0, 1, kS, 5);
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 0);
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, ReadWriteCycleDetected) {
  // T1 reads A then T2 writes A (T1 -> T2); T2 reads B then T1 writes B
  // (T2 -> T1): cycle.
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kS, 10);
  log.RecordAccess(2, 0, 1, kS, 12);
  log.RecordAccess(2, 0, 0, kX, 20);
  log.RecordAccess(1, 0, 1, kX, 22);
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 0);
  EXPECT_FALSE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, UncommittedAccessesIgnored) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);
  log.RecordAccess(2, 0, 1, kX, 15);
  log.RecordAccess(2, 0, 0, kX, 20);
  log.RecordAccess(1, 0, 1, kX, 25);
  log.RecordCommit(1, 0);
  // T2 never commits: its accesses drop out, no cycle remains.
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, AbortedIncarnationIgnored) {
  // T2's incarnation 0 formed a cycle, but only incarnation 1 committed.
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);
  log.RecordAccess(2, /*incarnation=*/0, 1, kX, 15);
  log.RecordAccess(2, /*incarnation=*/0, 0, kX, 20);
  log.RecordAccess(1, 0, 1, kX, 25);
  log.RecordAccess(2, /*incarnation=*/1, 1, kX, 40);
  log.RecordAccess(2, /*incarnation=*/1, 0, kX, 45);
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 1);
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, EqualTimesBreakBySequence) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);  // Sequence 0.
  log.RecordAccess(2, 0, 0, kX, 10);  // Sequence 1: after T1.
  log.RecordCommit(1, 0);
  log.RecordCommit(2, 0);
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);
}

TEST(SerializabilityTest, ThreeWayCycle) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);  // 1 -> 2 on file 0.
  log.RecordAccess(2, 0, 0, kX, 20);
  log.RecordAccess(2, 0, 1, kX, 30);  // 2 -> 3 on file 1.
  log.RecordAccess(3, 0, 1, kX, 40);
  log.RecordAccess(3, 0, 2, kX, 50);  // 3 -> 1 on file 2.
  log.RecordAccess(1, 0, 2, kX, 60);
  for (TxnId id : {1, 2, 3}) log.RecordCommit(id, 0);
  const SerializabilityResult result = CheckConflictSerializability(log);
  EXPECT_FALSE(result.serializable);
  EXPECT_EQ(result.cycle.size(), 3u);
}

// A chain of 300,000 transactions, T_i writing files i and i + 1, is one
// path as deep as the log is long: the search must not recurse per node.
TEST(SerializabilityTest, LongChainNeedsNoDeepStack) {
  constexpr TxnId kChain = 300'000;
  ScheduleLog log;
  for (TxnId i = 1; i <= kChain; ++i) {
    const auto file = static_cast<FileId>(i);
    log.RecordAccess(i, 0, file, kX, 2 * i);
    log.RecordAccess(i, 0, file + 1, kX, 2 * i + 1);
    log.RecordCommit(i, 0);
  }
  EXPECT_TRUE(CheckConflictSerializability(log).serializable);

  // T1 writing the chain's last file after T_n closes it into one cycle
  // through every transaction.
  log.RecordAccess(1, 0, static_cast<FileId>(kChain + 1), kX, 2 * kChain + 2);
  const SerializabilityResult result = CheckConflictSerializability(log);
  EXPECT_FALSE(result.serializable);
  EXPECT_EQ(result.cycle.size(), static_cast<size_t>(kChain));
}

// The full conflict graph — an edge for every conflicting pair — has a
// cycle exactly when the checker finds one.
bool FullGraphHasCycle(const ScheduleLog& log) {
  std::vector<ScheduleLog::Access> accesses;
  for (const auto& a : log.accesses()) {
    auto it = log.committed().find(a.txn);
    if (it != log.committed().end() && it->second == a.incarnation) {
      accesses.push_back(a);
    }
  }
  std::map<TxnId, std::set<TxnId>> adj;
  for (const auto& a : accesses) {
    for (const auto& b : accesses) {
      const bool before = std::tie(a.effective_time, a.sequence) <
                          std::tie(b.effective_time, b.sequence);
      if (a.file == b.file && a.txn != b.txn && before &&
          Conflicts(a.mode, b.mode)) {
        adj[a.txn].insert(b.txn);
      }
    }
  }
  // Repeatedly drop nodes without successors; a cycle leaves some behind.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = adj.begin(); it != adj.end();) {
      std::set<TxnId>& succ = it->second;
      for (auto s = succ.begin(); s != succ.end();) {
        s = adj.count(*s) ? std::next(s) : succ.erase(s);
      }
      if (succ.empty()) {
        it = adj.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return !adj.empty();
}

TEST(SerializabilityTest, MatchesTheFullConflictGraph) {
  Rng rng(17);
  int cycles = 0;
  for (int trial = 0; trial < 500; ++trial) {
    ScheduleLog log;
    const int txns = static_cast<int>(rng.UniformInt(2, 8));
    const int files = static_cast<int>(rng.UniformInt(1, 4));
    const int accesses = static_cast<int>(rng.UniformInt(2, 20));
    for (int i = 0; i < accesses; ++i) {
      log.RecordAccess(rng.UniformInt(1, txns), 0,
                       static_cast<FileId>(rng.UniformInt(0, files - 1)),
                       rng.UniformInt(0, 1) == 0 ? kS : kX,
                       rng.UniformInt(0, 10));
    }
    for (TxnId id = 1; id <= txns; ++id) {
      if (rng.UniformInt(0, 4) > 0) log.RecordCommit(id, 0);
    }
    const bool cycle = FullGraphHasCycle(log);
    cycles += cycle ? 1 : 0;
    EXPECT_EQ(CheckConflictSerializability(log).serializable, !cycle)
        << "trial " << trial;
  }
  EXPECT_GT(cycles, 50);
}

TEST(ScheduleLogTest, ClearResets) {
  ScheduleLog log;
  log.RecordAccess(1, 0, 0, kX, 10);
  log.RecordCommit(1, 0);
  log.Clear();
  EXPECT_TRUE(log.accesses().empty());
  EXPECT_TRUE(log.committed().empty());
}

}  // namespace
}  // namespace wtpgsched
