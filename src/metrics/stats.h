#ifndef WTPG_SCHED_METRICS_STATS_H_
#define WTPG_SCHED_METRICS_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/counters.h"
#include "metrics/quantile_sketch.h"
#include "model/transaction.h"
#include "sim/time.h"
#include "util/histogram.h"

namespace wtpgsched {

// Tail-latency observability options (config.run.tail_metrics /
// config.run.tail_sketch). Both default off, which keeps RunStats JSON —
// and therefore the kernel-invariance goldens — byte-identical to the
// pre-tail-metrics output.
struct TailOptions {
  // Surface p50/p99 and the per-class breakdown in ToJson output.
  bool tail_metrics = false;
  // Replace exact sample retention with the O(1)-state P² sketch: required
  // for long-horizon open-system runs where retaining every response time
  // grows without bound. Quantiles become approximations (see
  // metrics/quantile_sketch.h); the exact Histogram path remains the
  // differential-test oracle.
  bool sketch = false;
};

// Aggregate results of one simulation run (the paper's three metrics —
// mean response time, throughput, and the ingredients of response-time
// speedup — plus diagnostics).
struct RunStats {
  uint64_t arrivals = 0;
  uint64_t completions = 0;           // All committed transactions.
  uint64_t completions_measured = 0;  // Committed inside the window.
  double mean_response_s = 0.0;       // Over the measurement window.
  double median_response_s = 0.0;
  double p95_response_s = 0.0;
  double p99_response_s = 0.0;
  double throughput_tps = 0.0;  // completions_measured / window length.
  uint64_t restarts = 0;        // OPT validation failures.
  uint64_t blocked = 0;         // Lock requests blocked.
  uint64_t delayed = 0;         // Requests delayed by scheduling strategy.
  uint64_t start_rejections = 0;  // Admission refusals (GOW chain test etc).
  double cn_utilization = 0.0;
  double mean_dpn_utilization = 0.0;
  double max_dpn_utilization = 0.0;
  double sim_seconds = 0.0;     // Total simulated horizon.
  uint64_t in_flight_at_end = 0;  // Transactions not finished at horizon.

  // Tail-metrics mode of the run (copied from TailOptions): gates the
  // extra JSON fields below so default-config output stays byte-identical.
  bool tail_metrics = false;
  bool sketch_quantiles = false;

  // Full counter-registry contents, in registration order. The first four
  // ("restarts", "blocked", "delayed", "start_rejections") mirror the legacy
  // fields above; the rest are scheduler-specific ("low.deadlock_delays")
  // and trace counters ("trace.commit"), present only when non-empty.
  std::vector<std::pair<std::string, uint64_t>> counters;

  // One-line JSON object with every field (tooling output). Legacy field
  // names and order are preserved; when tail_metrics is set, p50/p99 and
  // flat per-class keys ("class0.p99_s") are appended before the non-legacy
  // counters.
  std::string ToJson() const;

  // Per-workload-class breakdown (mixed workloads; one entry for
  // single-pattern runs). Indexed positions match the mix order.
  struct ClassStats {
    int workload_class = 0;
    uint64_t completions = 0;  // In the measurement window.
    double mean_response_s = 0.0;
    double median_response_s = 0.0;
    double p95_response_s = 0.0;
    double p99_response_s = 0.0;

    bool operator==(const ClassStats&) const = default;
  };
  std::vector<ClassStats> per_class;

  // Field by field and exact, unlike a comparison of ToJson texts, which
  // print doubles to six significant digits.
  bool operator==(const RunStats&) const = default;
};

// Collects per-transaction outcomes during a run. The measurement window is
// [warmup, horizon]: completions stamped before warmup are excluded from
// response-time and throughput figures (the paper uses warmup 0).
class StatsCollector {
 public:
  StatsCollector(SimTime warmup, SimTime horizon, TailOptions tail = {});

  void RecordArrival() { ++stats_.arrivals; }
  void RecordBlocked() { ++*blocked_; }
  void RecordDelayed() { ++*delayed_; }
  void RecordStartRejection() { ++*start_rejections_; }
  void RecordRestart() { ++*restarts_; }

  void RecordCompletion(const Transaction& txn, SimTime now);

  uint64_t completions_so_far() const { return stats_.completions; }

  // Fills in derived figures; utilizations/in-flight are supplied by the
  // machine.
  RunStats Finalize(double cn_utilization, double mean_dpn_utilization,
                    double max_dpn_utilization, uint64_t in_flight) const;

  // Shared name -> count registry. The collector's own counters live here
  // (under the legacy JSON field names); schedulers and the trace recorder
  // add theirs before Finalize via Scheduler::ExportCounters /
  // TraceRecorder::ExportCounters.
  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

 private:
  // One response-time stream in either representation: the exact Histogram
  // (short runs; differential oracle) or the O(1)-state sketch (long
  // horizons). Exactly one side is fed, chosen once per run.
  struct Stream {
    bool use_sketch = false;
    Histogram exact;
    QuantileSketch sketch;

    void Add(double v) { use_sketch ? sketch.Add(v) : exact.Add(v); }
    size_t Count() const {
      return use_sketch ? sketch.count() : exact.count();
    }
    double Mean() const { return use_sketch ? sketch.Mean() : exact.Mean(); }
    double P50() const {
      return use_sketch ? sketch.P50() : exact.Percentile(50.0);
    }
    double P95() const {
      return use_sketch ? sketch.P95() : exact.Percentile(95.0);
    }
    double P99() const {
      return use_sketch ? sketch.P99() : exact.Percentile(99.0);
    }
  };

  SimTime warmup_;
  SimTime horizon_;
  TailOptions tail_;
  RunStats stats_;
  CounterRegistry counters_;
  // Cached registry slots for the hot-path Record* calls (deque-backed, so
  // the references stay valid as other counters register).
  uint64_t* restarts_;
  uint64_t* blocked_;
  uint64_t* delayed_;
  uint64_t* start_rejections_;
  Stream window_responses_;  // Seconds; completions in window only.
  std::map<int, Stream> class_responses_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_METRICS_STATS_H_
