// Microbenchmarks of the WTPG primitives (google-benchmark): graph
// maintenance, orientation with closure, E(q) evaluation, critical path,
// and the GOW chain DP. These are the operations whose CPU prices Table 1
// charges at the control node.

#include <vector>

#include <benchmark/benchmark.h>

#include "util/random.h"
#include "wtpg/chain.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

// A random WTPG with `n` nodes and edge probability `p`, with about half
// the edges oriented. Orienting in ascending id order keeps the graph
// acyclic, so the clone-free OrientNoRollback always succeeds — setup for
// the 512-node case must not pay speculative machinery.
Wtpg RandomGraph(int n, double p, uint64_t seed) {
  Rng rng(seed);
  Wtpg g;
  for (int i = 1; i <= n; ++i) g.AddNode(i, rng.UniformReal(0.0, 8.0));
  std::vector<std::pair<TxnId, TxnId>> to_orient;
  for (int a = 1; a <= n; ++a) {
    for (int b = a + 1; b <= n; ++b) {
      if (rng.NextDouble() < p) {
        g.AddConflictEdge(a, b, rng.UniformReal(0.0, 8.0),
                          rng.UniformReal(0.0, 8.0));
        if (rng.NextDouble() < 0.5) to_orient.emplace_back(a, b);
      }
    }
  }
  for (const auto& [a, b] : to_orient) {
    const Wtpg::Edge* e = g.FindEdge(a, b);
    if (e != nullptr && !e->oriented) g.OrientNoRollback(a, b);
  }
  return g;
}

Wtpg RandomChain(int n, uint64_t seed) {
  Rng rng(seed);
  Wtpg g;
  for (int i = 1; i <= n; ++i) g.AddNode(i, rng.UniformReal(0.0, 8.0));
  for (int i = 1; i < n; ++i) {
    g.AddConflictEdge(i, i + 1, rng.UniformReal(0.0, 8.0),
                      rng.UniformReal(0.0, 8.0));
  }
  return g;
}

void BM_AddRemoveNode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Wtpg g = RandomGraph(n, 0.2, 1);
  for (auto _ : state) {
    g.AddNode(n + 1, 3.0);
    g.AddConflictEdge(1, n + 1, 1.0, 2.0);
    g.AddConflictEdge(2, n + 1, 1.0, 2.0);
    g.RemoveNode(n + 1);
  }
}
BENCHMARK(BM_AddRemoveNode)->Arg(8)->Arg(32)->Arg(128);

void BM_CriticalPath(benchmark::State& state) {
  const Wtpg g = RandomGraph(static_cast<int>(state.range(0)), 0.2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.CriticalPath());
  }
}
BENCHMARK(BM_CriticalPath)->Arg(8)->Arg(32)->Arg(128);

// The copy-per-evaluation speculation the undo journal replaced: clone the
// graph, orient on the clone, read its critical path, discard the clone.
double EvaluateGrantByCopy(const Wtpg& g, TxnId grantee,
                           const std::vector<TxnId>& targets) {
  Wtpg copy = g;
  if (!copy.OrientBatchNoRollback(grantee, targets)) return kInfiniteCost;
  return copy.CriticalPath();
}

// E(q) with the production undo-journal speculation vs the
// copy-per-evaluation baseline. This is the LOW/GOW decision hot path: the
// acceptance bar for the journal rewrite is >= 5x fewer ns per evaluation
// at N = 128 (see results/micro_wtpg_speculation.csv).
void RunEvaluateGrant(benchmark::State& state, bool copy) {
  const int n = static_cast<int>(state.range(0));
  Wtpg g = RandomGraph(n, 0.2, 3);
  // Pick a node with unoriented edges as the grantee.
  TxnId grantee = 1;
  std::vector<TxnId> targets;
  for (const auto& [a, b] : g.UnorientedEdges()) {
    grantee = a;
    targets = {b};
    break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(copy ? EvaluateGrantByCopy(g, grantee, targets)
                                  : EvaluateGrant(g, grantee, targets));
  }
}

void BM_EvaluateGrant(benchmark::State& state) {
  RunEvaluateGrant(state, /*copy=*/false);
}
BENCHMARK(BM_EvaluateGrant)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_EvaluateGrantCopyReference(benchmark::State& state) {
  RunEvaluateGrant(state, /*copy=*/true);
}
BENCHMARK(BM_EvaluateGrantCopyReference)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// LOW's actual per-decision pattern: one E(q) plus K competitor E(p)
// evaluations against the same base graph — the case the memoized critical
// path distances are designed for.
void RunLowDecision(benchmark::State& state, bool copy) {
  const int n = static_cast<int>(state.range(0));
  Wtpg g = RandomGraph(n, 0.2, 7);
  // The first three unoriented edges play q and two competitors p1, p2.
  std::vector<std::pair<TxnId, TxnId>> evals;
  for (const auto& [a, b] : g.UnorientedEdges()) {
    evals.emplace_back(a, b);
    if (evals.size() == 3) break;
  }
  for (auto _ : state) {
    for (const auto& [grantee, target] : evals) {
      benchmark::DoNotOptimize(copy ? EvaluateGrantByCopy(g, grantee, {target})
                                    : EvaluateGrant(g, grantee, {target}));
    }
  }
}

void BM_LowDecisionJournal(benchmark::State& state) {
  RunLowDecision(state, /*copy=*/false);
}
BENCHMARK(BM_LowDecisionJournal)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_LowDecisionCopyReference(benchmark::State& state) {
  RunLowDecision(state, /*copy=*/true);
}
BENCHMARK(BM_LowDecisionCopyReference)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// Edge-table insert, find and erase around a hub node in the highest slot
// that conflicts with every lower slot. Each iteration churns one leaf:
// RemoveNode erases its hub edge, AddConflictEdge re-inserts it, FindEdge
// looks it up.
void BM_EdgeTableHub(benchmark::State& state) {
  const auto leaves = static_cast<TxnId>(state.range(0));
  Wtpg g;
  for (TxnId id = 1; id <= leaves + 1; ++id) g.AddNode(id, 1.0);
  const TxnId hub = leaves + 1;
  for (TxnId leaf = 1; leaf <= leaves; ++leaf) {
    g.AddConflictEdge(leaf, hub, 1.0, 1.0);
  }
  TxnId leaf = 1;
  for (auto _ : state) {
    g.RemoveNode(leaf);
    g.AddNode(leaf, 1.0);
    g.AddConflictEdge(leaf, hub, 1.0, 1.0);
    benchmark::DoNotOptimize(g.FindEdge(hub, leaf));
    leaf = leaf % leaves + 1;
  }
}
BENCHMARK(BM_EdgeTableHub)->Arg(64)->Arg(1024);

void BM_ChainOptimize(benchmark::State& state) {
  const Wtpg g = RandomChain(static_cast<int>(state.range(0)), 5);
  const std::vector<TxnId> chain = ChainContaining(g, 1);
  for (auto _ : state) {
    auto plan = OptimizeChain(g, chain);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ChainOptimize)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ChainFormTest(benchmark::State& state) {
  const Wtpg g = RandomChain(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsChainForm(g));
  }
}
BENCHMARK(BM_ChainFormTest)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace wtpgsched
