#include "driver/sim_run.h"

#include <cstdlib>
#include <map>

#include "machine/machine.h"
#include "metrics/counters.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/progress.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace wtpgsched {
namespace {

// Serial left-to-right reduction over replica stats; the accumulation order
// is the submission order regardless of which worker ran which replica, so
// the result is bit-identical to the serial path.
AggregateResult Reduce(const std::vector<RunStats>& replicas) {
  AggregateResult agg;
  agg.num_seeds = static_cast<int>(replicas.size());
  CounterRegistry merged;
  // Per-class accumulation: std::map keeps classes in ascending index order
  // regardless of which replicas reported which classes.
  struct ClassAcc {
    AggregateResult::ClassAgg sums;
    int present = 0;  // Replicas with >= 1 completion of this class.
  };
  std::map<int, ClassAcc> classes;
  for (const RunStats& stats : replicas) {
    agg.mean_response_s += stats.mean_response_s;
    agg.throughput_tps += stats.throughput_tps;
    agg.completions += static_cast<double>(stats.completions_measured);
    agg.restarts += static_cast<double>(stats.restarts);
    agg.blocked += static_cast<double>(stats.blocked);
    agg.delayed += static_cast<double>(stats.delayed);
    agg.start_rejections += static_cast<double>(stats.start_rejections);
    agg.cn_utilization += stats.cn_utilization;
    agg.mean_dpn_utilization += stats.mean_dpn_utilization;
    agg.tail_metrics = agg.tail_metrics || stats.tail_metrics;
    agg.p50_response_s += stats.median_response_s;
    agg.p95_response_s += stats.p95_response_s;
    agg.p99_response_s += stats.p99_response_s;
    for (const RunStats::ClassStats& cs : stats.per_class) {
      ClassAcc& acc = classes[cs.workload_class];
      acc.sums.completions += static_cast<double>(cs.completions);
      acc.sums.mean_response_s += cs.mean_response_s;
      acc.sums.p50_response_s += cs.median_response_s;
      acc.sums.p95_response_s += cs.p95_response_s;
      acc.sums.p99_response_s += cs.p99_response_s;
      acc.present += 1;
    }
    merged.Merge(stats.counters);
  }
  const double n = static_cast<double>(replicas.size());
  agg.mean_response_s /= n;
  agg.throughput_tps /= n;
  agg.completions /= n;
  agg.restarts /= n;
  agg.blocked /= n;
  agg.delayed /= n;
  agg.start_rejections /= n;
  agg.cn_utilization /= n;
  agg.mean_dpn_utilization /= n;
  agg.p50_response_s /= n;
  agg.p95_response_s /= n;
  agg.p99_response_s /= n;
  for (auto& [workload_class, acc] : classes) {
    AggregateResult::ClassAgg out = acc.sums;
    out.workload_class = workload_class;
    out.completions /= n;
    const double present = static_cast<double>(acc.present);
    out.mean_response_s /= present;
    out.p50_response_s /= present;
    out.p95_response_s /= present;
    out.p99_response_s /= present;
    agg.per_class.push_back(out);
  }
  agg.counters = merged.Entries();
  return agg;
}

// RunReplicas / RunAggregates over either workload spelling (single pattern
// or weighted mix), parameterized on the per-replica machine builder.
template <typename Workload>
std::vector<RunStats> RunReplicasImpl(const std::vector<SimConfig>& configs,
                                      const Workload& workload, int jobs) {
  std::vector<RunStats> results(configs.size());
  const int workers = ResolveJobs(jobs);
  // Inert unless a tool enabled --progress (and stderr is a TTY or the
  // mode is forced); see util/progress.h.
  ProgressMeter progress("replicas", configs.size());
  ParallelFor(workers, configs.size(), [&](size_t i) {
    Machine machine(configs[i], workload);
    results[i] = machine.Run();
    progress.Tick();
  });
  return results;
}

template <typename Workload>
std::vector<AggregateResult> RunAggregatesImpl(
    const std::vector<SimConfig>& bases, const Workload& workload,
    int num_seeds, int jobs) {
  WTPG_CHECK_GE(num_seeds, 1);
  std::vector<SimConfig> replicas;
  replicas.reserve(bases.size() * static_cast<size_t>(num_seeds));
  for (const SimConfig& base : bases) {
    for (int i = 0; i < num_seeds; ++i) {
      SimConfig config = base;
      config.run.seed = base.run.seed + static_cast<uint64_t>(i);
      replicas.push_back(config);
    }
  }
  const std::vector<RunStats> stats =
      RunReplicasImpl(replicas, workload, jobs);
  std::vector<AggregateResult> results;
  results.reserve(bases.size());
  for (size_t b = 0; b < bases.size(); ++b) {
    const auto first = stats.begin() + static_cast<ptrdiff_t>(b) * num_seeds;
    results.push_back(Reduce({first, first + num_seeds}));
  }
  return results;
}

}  // namespace

RunStats RunSimulation(const SimConfig& config, const Pattern& pattern) {
  Machine machine(config, pattern);
  return machine.Run();
}

RunStats RunSimulation(const SimConfig& config,
                       const std::vector<WeightedPattern>& mix) {
  Machine machine(config, mix);
  return machine.Run();
}

int DefaultJobs() {
  static const int jobs = [] {
    const char* env = std::getenv("WTPG_JOBS");
    if (env != nullptr && env[0] != '\0') {
      int64_t value = 0;
      if (ParseInt64(env, &value) && value >= 1) {
        return static_cast<int>(value);
      }
      WTPG_LOG(Warning) << "WTPG_JOBS='" << env
                        << "' is not a positive integer; using hardware "
                           "concurrency";
    }
    return HardwareThreads();
  }();
  return jobs;
}

int ResolveJobs(int jobs) { return jobs >= 1 ? jobs : DefaultJobs(); }

std::vector<RunStats> RunReplicas(const std::vector<SimConfig>& configs,
                                  const Pattern& pattern, int jobs) {
  return RunReplicasImpl(configs, pattern, jobs);
}

std::vector<RunStats> RunReplicas(const std::vector<SimConfig>& configs,
                                  const std::vector<WeightedPattern>& mix,
                                  int jobs) {
  return RunReplicasImpl(configs, mix, jobs);
}

AggregateResult RunAggregate(SimConfig config, const Pattern& pattern,
                             int num_seeds, int jobs) {
  return RunAggregates({config}, pattern, num_seeds, jobs).front();
}

AggregateResult RunAggregate(SimConfig config,
                             const std::vector<WeightedPattern>& mix,
                             int num_seeds, int jobs) {
  return RunAggregates({config}, mix, num_seeds, jobs).front();
}

std::vector<AggregateResult> RunAggregates(const std::vector<SimConfig>& bases,
                                           const Pattern& pattern,
                                           int num_seeds, int jobs) {
  return RunAggregatesImpl(bases, pattern, num_seeds, jobs);
}

std::vector<AggregateResult> RunAggregates(
    const std::vector<SimConfig>& bases,
    const std::vector<WeightedPattern>& mix, int num_seeds, int jobs) {
  return RunAggregatesImpl(bases, mix, num_seeds, jobs);
}

std::string AggregateResult::ToJson() const {
  JsonWriter json;
  json.Add("num_seeds", num_seeds)
      .Add("mean_response_s", mean_response_s)
      .Add("throughput_tps", throughput_tps)
      .Add("completions", completions)
      .Add("restarts", restarts)
      .Add("blocked", blocked)
      .Add("delayed", delayed)
      .Add("start_rejections", start_rejections)
      .Add("cn_utilization", cn_utilization)
      .Add("mean_dpn_utilization", mean_dpn_utilization);
  // Tail block is opt-in (run.tail_metrics): default-mode JSON — and the
  // kernel-invariance goldens pinned to it — is unchanged.
  if (tail_metrics) {
    json.Add("p50_response_s", p50_response_s)
        .Add("p95_response_s", p95_response_s)
        .Add("p99_response_s", p99_response_s);
    for (const ClassAgg& cs : per_class) {
      const std::string prefix = StrCat("class", cs.workload_class, ".");
      json.Add(StrCat(prefix, "completions"), cs.completions)
          .Add(StrCat(prefix, "mean_s"), cs.mean_response_s)
          .Add(StrCat(prefix, "p50_s"), cs.p50_response_s)
          .Add(StrCat(prefix, "p95_s"), cs.p95_response_s)
          .Add(StrCat(prefix, "p99_s"), cs.p99_response_s);
    }
  }
  for (const auto& [name, value] : counters) {
    json.Add(StrCat("counters.", name), value);
  }
  return json.ToString();
}

}  // namespace wtpgsched
