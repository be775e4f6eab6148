#include "analysis/serializability.h"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/string_util.h"

namespace wtpgsched {

std::string SerializabilityResult::ToString() const {
  if (serializable) return "serializable";
  std::vector<std::string> parts;
  for (TxnId id : cycle) parts.push_back(StrCat("T", id));
  return StrCat("NOT serializable; cycle: ", Join(parts, " -> "));
}

SerializabilityResult CheckConflictSerializability(const ScheduleLog& log) {
  SerializabilityResult result;
  const auto& committed = log.committed();

  // Graph nodes are the committed transactions, numbered in id order so the
  // search, and the cycle it reports, do not depend on hash order.
  std::vector<TxnId> ids;
  ids.reserve(committed.size());
  for (const auto& [txn, incarnation] : committed) {
    (void)incarnation;
    ids.push_back(txn);
  }
  std::sort(ids.begin(), ids.end());
  std::unordered_map<TxnId, size_t> node_of;
  node_of.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) node_of.emplace(ids[i], i);

  // Committed accesses, per file in effective-time order.
  std::vector<ScheduleLog::Access> accesses;
  for (const auto& access : log.accesses()) {
    auto it = committed.find(access.txn);
    if (it == committed.end() || it->second != access.incarnation) continue;
    accesses.push_back(access);
  }
  std::sort(accesses.begin(), accesses.end(),
            [](const ScheduleLog::Access& a, const ScheduleLog::Access& b) {
              return std::tie(a.file, a.effective_time, a.sequence) <
                     std::tie(b.file, b.effective_time, b.sequence);
            });

  // Per file, each access links only to its adjacent conflicts: a read
  // from the last write, a write from the last write and from the reads
  // since then. A path still joins every conflicting pair, so the graph
  // has a cycle exactly when the full conflict graph does, and it has at
  // most two edges per access.
  constexpr size_t kNone = SIZE_MAX;
  std::vector<std::vector<size_t>> out(ids.size());
  size_t last_write = kNone;
  std::vector<size_t> reads_since;
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (i > 0 && accesses[i].file != accesses[i - 1].file) {
      last_write = kNone;
      reads_since.clear();
    }
    const size_t node = node_of.at(accesses[i].txn);
    const auto link = [&](size_t from) {
      if (from != node) out[from].push_back(node);
    };
    if (last_write != kNone) link(last_write);
    if (accesses[i].mode == LockMode::kShared) {
      reads_since.push_back(node);
      continue;
    }
    for (size_t read : reads_since) link(read);
    reads_since.clear();
    last_write = node;
  }

  // Depth-first search with an explicit stack: the current path of
  // (node, next out-edge) pairs. A chain of conflicts is as deep as the
  // log is long.
  enum class Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(ids.size(), Color::kWhite);
  std::vector<std::pair<size_t, size_t>> path;
  for (size_t root = 0; root < ids.size(); ++root) {
    if (color[root] != Color::kWhite) continue;
    color[root] = Color::kGray;
    path.emplace_back(root, 0);
    while (!path.empty()) {
      auto& [node, next] = path.back();
      if (next == out[node].size()) {
        color[node] = Color::kBlack;
        path.pop_back();
        continue;
      }
      const size_t succ = out[node][next++];
      if (color[succ] == Color::kGray) {
        // The cycle is the path from `succ` to its end.
        auto pos = std::find_if(path.begin(), path.end(), [succ](auto& p) {
          return p.first == succ;
        });
        for (; pos != path.end(); ++pos) {
          result.cycle.push_back(ids[pos->first]);
        }
        result.serializable = false;
        return result;
      }
      if (color[succ] == Color::kWhite) {
        color[succ] = Color::kGray;
        path.emplace_back(succ, 0);
      }
    }
  }
  result.serializable = true;
  return result;
}

}  // namespace wtpgsched
