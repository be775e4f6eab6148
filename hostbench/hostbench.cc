// Host-cost benchmark of the wtpg_sched simulator.
//
// Runs one workload through the library's public API for a host-time budget
// and prints, as the last line of stdout, one JSON report: the build stamp,
// the operation tally with every failed check, the metrics, and each run's
// simulated outcome. run.py builds this program, compares the outcomes with
// expected.json and prints the benchmark's result line.
//
//   hostbench --workload=saturated_horizon --seed=1 --seconds=40
//             --trace=0 --out-dir=DIR
//
// Workloads, each a closed loop of one client issuing its runs back to back
// in passes over several sub-seeds derived from --seed:
//   paper_rt70          the driver's RT = 70 s operating-point search for the
//                       six paper schedulers, 16 files, DD 1 and DD 4.
//   saturated_horizon   one serial Machine run each of ASL, GOW, LOW and C2PL
//                       on the Experiment-1 pattern at 1.2 TPS.
//   openworld_observed  LOW and C2PL on the open-world two-class Zipf mix
//                       with DPN churn, the simulator's event trace and
//                       telemetry recorded.
//
// --trace=0 measures the end-to-end metrics with no instrumentation. Its
// peak_rss_mb comes from child processes of this program, each started with
// --memory-unit=K to run one unit of the workload's work and nothing else.
// --trace=1 runs every Machine run twice, plain and instrumented from
// outside the library: a timing subclass of each stock scheduler (injected
// through the custom-scheduler Machine constructor), a probe event on
// Machine::simulator(), and timers around the calls into workload, trace,
// telemetry and analysis. It exports the recorded trace and telemetry,
// reports the per-layer metrics and checks that both runs simulate the same
// thing. Spans of the coarse boundaries (workload -> pass -> run ->
// export/check) go to DIR/spans-<workload>-<seed>.jsonl.

#include <errno.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/serializability.h"
#include "driver/experiments.h"
#include "driver/sim_run.h"
#include "driver/sweep.h"
#include "machine/machine.h"
#include "sched/asl.h"
#include "sched/c2pl.h"
#include "sched/gow.h"
#include "sched/low.h"
#include "sched/scheduler_factory.h"
#include "telemetry/telemetry_export.h"
#include "trace/trace_export.h"
#include "workload/openworld.h"
#include "workload/pattern.h"
#include "workload/workload.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wtpgsched;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Build stamp

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "none";
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string StampJson() {
  return "{\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + Quoted(HOSTBENCH_BUILD_TYPE) +
         ",\"optimized\":" + (kOptimized ? "true" : "false") +
         ",\"sanitizer\":" + Quoted(kSanitizer) +
         ",\"compiler\":" + Quoted(Compiler()) +
         ",\"driver_workers\":" + std::to_string(ResolveJobs(0)) + "}";
}

// ---------------------------------------------------------------------------
// Clocks and statistics

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host speed. On a shared machine the speed of this kind of code drifts by
// up to a third over minutes (measured: the same GOW run took 0.15 s to
// 0.26 s within one minute, while a pure arithmetic loop stayed within 4 %).
// The benchmark therefore times a fixed reference, built into this file and
// never the library's code, before every round: a toy event loop over a
// priority queue and two keyed tables, then random reads over a table four
// times the size of an L2 cache, as the WTPG edge table and the open-world
// per-file tables are. Each round's end-to-end times are scaled by
// kNominalS / (the reference time measured right before the round): seconds
// at the reference speed of the machine the benchmark was calibrated on
// (4-core Xeon VM). The speed switches from one second to the next, so the
// reference of the round tracks it better than one of the whole run: with
// the median of each run's repeats (UnitTimes), the spread of wall_s over
// runs on four to six seeds fell from 11 % unscaled to 6 % on
// saturated_horizon and from 10 % to 8 % on openworld_observed. Work that
// slows with the reference no longer moves the figures; a change to the
// library does.
class HostSpeed {
 public:
  static constexpr double kNominalS = 0.04;

  void Sample() {
    last_s_ = Reference();
    samples_.push_back(last_s_);
  }
  double best_s() const {
    return samples_.empty() ? 0.0
                            : *std::min_element(samples_.begin(),
                                                samples_.end());
  }
  double median_s() const { return Median(samples_); }
  // Host seconds timed since the last sample, in reference seconds.
  double Scaled(double seconds) const {
    return seconds * kNominalS / last_s_;
  }

 private:
  static double Reference() {
    static const std::vector<uint32_t> cycle = RandomCycle(1 << 21);
    // The loop's tables come from an arena of their own, laid out afresh
    // for every sample. From the shared heap their speed depended on what
    // the runs before had left there, and so on the seed: one seed's
    // samples read 14 % slower than another's in every invocation.
    static std::vector<std::byte> arena(16 << 20);
    std::pmr::monotonic_buffer_resource buffer(arena.data(), arena.size());
    std::pmr::unsynchronized_pool_resource pool(&buffer);
    using Event = std::pair<uint64_t, uint32_t>;
    const Clock::time_point start = Clock::now();
    std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> events{
        std::greater<>(), std::pmr::vector<Event>(&pool)};
    std::pmr::map<uint32_t, uint64_t> live(&pool);
    std::pmr::unordered_map<uint32_t, uint32_t> touched(&pool);
    uint64_t x = 88172645463325252ull;
    uint64_t acc = 0;
    uint32_t next = 0;
    for (; next < 64; ++next) {
      events.push({next, next});
      live[next] = next;
    }
    for (int step = 0; step < 200'000; ++step) {
      const auto [now, id] = events.top();
      events.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto it = live.find(id);
      if (it != live.end() && (x & 3) == 0) {
        live.erase(it);
        touched.erase(id);
        live[next] = now;
        events.push({now + (x >> 40) % 1000, next++});
      } else {
        touched[id] += 1;
        acc += live.size();
        events.push({now + (x >> 44) % 1000, id});
      }
    }
    uint32_t at = 0;
    for (int i = 0; i < 100'000; ++i) at = cycle[at];
    acc += at;
    const double s = Since(start);
    return acc == 0 ? s + 1.0 : s;  // Keeps the loops' results live.
  }

  // A random single cycle over [0, n) (Sattolo), so reads chase through it.
  static std::vector<uint32_t> RandomCycle(uint32_t n) {
    std::vector<uint32_t> next(n);
    for (uint32_t i = 0; i < n; ++i) next[i] = i;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }

  double last_s_ = kNominalS;
  std::vector<double> samples_;
};

// Per-round values of each metric; the report gives their medians.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  // 0 for a metric the workload never sampled: its layer is not exercised.
  double MedianOf(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// Operations attempted and failed; every failed check is named.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// Spans of the coarse boundaries, kept in memory and written at the end.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span under `parent` (-1: root) and returns its id.
  int Begin(const std::string& name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, Since(origin_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_s = Since(origin_);
  }

  bool Write(const std::string& path) const {
    if (!enabled_) return true;
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"name\":" << Quoted(s.name) << ",\"start_s\":" << Num(s.start_s)
          << ",\"end_s\":" << Num(s.end_s) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Scheduler layer: a timing subclass of each stock scheduler

// Calls, outcomes and inclusive host time of one scheduler's hooks.
struct HookTimes {
  uint64_t startup_calls = 0;
  uint64_t startup_grants = 0;
  uint64_t lock_calls = 0;
  uint64_t lock_grants = 0;
  double startup_s = 0.0;  // DecideStartup.
  double admit_s = 0.0;    // AfterAdmit.
  double lock_s = 0.0;     // DecideLock.
  double grant_s = 0.0;    // OnLockRecorded + AfterGrant.
  double commit_s = 0.0;   // AfterCommit + AfterAbort.
  double step_s = 0.0;     // OnStepCompleted + ValidateAtCommit.

  // The hooks never call one another, so their times add up.
  double total_s() const {
    return startup_s + admit_s + lock_s + grant_s + commit_s + step_s;
  }
};

// Adds the host time of its scope to one HookTimes field.
class HookTimer {
 public:
  explicit HookTimer(double* sink) : sink_(sink), start_(Clock::now()) {}
  ~HookTimer() { *sink_ += Since(start_); }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  double* sink_;
  Clock::time_point start_;
};

// A stock scheduler with every decision hook wrapped in a clock read and
// its outcome counted. It changes no decision, so the run it drives must
// simulate exactly what the stock scheduler does.
template <class Base>
class Timed final : public Base {
 public:
  template <class... Args>
  explicit Timed(HookTimes* times, Args... args)
      : Base(args...), times_(times) {}

  void OnStepCompleted(Transaction& txn, int step) override {
    HookTimer timer(&times_->step_s);
    Base::OnStepCompleted(txn, step);
  }
  bool ValidateAtCommit(Transaction& txn) override {
    HookTimer timer(&times_->step_s);
    return Base::ValidateAtCommit(txn);
  }

 protected:
  Decision DecideStartup(Transaction& txn) override {
    HookTimer timer(&times_->startup_s);
    const Decision d = Base::DecideStartup(txn);
    ++times_->startup_calls;
    if (d.kind == DecisionKind::kGrant) ++times_->startup_grants;
    return d;
  }
  void AfterAdmit(Transaction& txn) override {
    HookTimer timer(&times_->admit_s);
    Base::AfterAdmit(txn);
  }
  Decision DecideLock(Transaction& txn, int step) override {
    HookTimer timer(&times_->lock_s);
    const Decision d = Base::DecideLock(txn, step);
    ++times_->lock_calls;
    if (d.kind == DecisionKind::kGrant) ++times_->lock_grants;
    return d;
  }
  void OnLockRecorded(Transaction& txn, FileId file) override {
    HookTimer timer(&times_->grant_s);
    Base::OnLockRecorded(txn, file);
  }
  void AfterGrant(Transaction& txn, int step) override {
    HookTimer timer(&times_->grant_s);
    Base::AfterGrant(txn, step);
  }
  void AfterCommit(Transaction& txn) override {
    HookTimer timer(&times_->commit_s);
    Base::AfterCommit(txn);
  }
  void AfterAbort(Transaction& txn) override {
    HookTimer timer(&times_->commit_s);
    Base::AfterAbort(txn);
  }

 private:
  HookTimes* times_;
};

// The schedulers saturated_horizon and the traced replay of paper_rt70 run
// under Machine, in report order; the per-layer metrics name each.
const std::vector<SchedulerKind>& MachineSchedulers() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kAsl, SchedulerKind::kGow, SchedulerKind::kLow,
      SchedulerKind::kC2pl};
  return kinds;
}

// The schedulers every workload runs, so the ones with an end-to-end share.
// openworld_observed runs only these: on its mix GOW's and ASL's host cost
// swung by a factor of 1.8 between seeds (DPN crashes set off admission
// retry storms), so their shares would not hold any bound.
const std::vector<SchedulerKind>& SharedSchedulers() {
  static const std::vector<SchedulerKind> kinds = {SchedulerKind::kLow,
                                                   SchedulerKind::kC2pl};
  return kinds;
}

// Mirrors the stock factory's constructor arguments; the traced-equals-
// untraced check catches any drift from it.
std::unique_ptr<Scheduler> MakeTimedScheduler(const SimConfig& c,
                                              HookTimes* times) {
  switch (c.scheduler) {
    case SchedulerKind::kAsl:
      return std::make_unique<Timed<AslScheduler>>(times);
    case SchedulerKind::kGow:
      return std::make_unique<Timed<GowScheduler>>(
          times, MsToTime(c.costs.top_time_ms),
          MsToTime(c.costs.chain_time_ms));
    case SchedulerKind::kLow:
      return std::make_unique<Timed<LowScheduler>>(
          times, c.low_k, MsToTime(c.costs.kwtpg_time_ms),
          c.low_charge_per_eval);
    case SchedulerKind::kC2pl:
      return std::make_unique<Timed<C2plScheduler>>(
          times, MsToTime(c.costs.dd_time_ms), c.machine.mpl);
    default:
      return nullptr;
  }
}

std::string Lower(SchedulerKind kind) {
  std::string s = SchedulerKindName(kind);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// ---------------------------------------------------------------------------
// Machine and simulator layers: a probe event across the horizon

// Samples host time and machine state at fixed fractions of the horizon.
// Each sample schedules the next, so at most one probe event is pending and
// the queue depth it reads excludes the probe itself.
class Probe {
 public:
  static constexpr int kSamples = 20;  // Every 5 % of the horizon.

  explicit Probe(Machine* machine)
      : machine_(machine),
        graph_(dynamic_cast<const WtpgSchedulerBase*>(&machine->scheduler())) {}

  // Call right before Machine::Run(); `run_start` opens the run span.
  void Start(Clock::time_point run_start) {
    run_start_ = run_start;
    ScheduleNext();
  }

  // Host seconds of the last quarter of the horizon over the first quarter;
  // `run_s` is the whole run span.
  double HostGrowth(double run_s) const {
    if (host_s_.size() < static_cast<size_t>(kSamples) - 1) return 0.0;
    const double first = host_s_[kSamples / 4 - 1];
    const double last = run_s - host_s_[3 * kSamples / 4 - 1];
    return Ratio(last, first);
  }

  uint64_t fired() const { return host_s_.size(); }
  size_t in_flight_max = 0;
  size_t queue_depth_max = 0;
  size_t locked_files_max = 0;
  size_t nodes_max = 0;
  size_t edges_max = 0;

 private:
  void ScheduleNext() {
    const int k = static_cast<int>(host_s_.size()) + 1;
    if (k >= kSamples) return;
    const SimTime at = machine_->config().horizon() / kSamples * k;
    machine_->simulator().ScheduleAt(at, [this] { Sample(); });
  }

  void Sample() {
    host_s_.push_back(Since(run_start_));
    in_flight_max = std::max(in_flight_max, machine_->in_flight());
    queue_depth_max =
        std::max(queue_depth_max, machine_->simulator().pending_events());
    locked_files_max = std::max(
        locked_files_max,
        machine_->scheduler().lock_table().num_locked_files());
    if (graph_ != nullptr) {
      nodes_max = std::max(nodes_max, graph_->graph().num_nodes());
      edges_max = std::max(edges_max, graph_->graph().num_edges());
    }
    ScheduleNext();
  }

  Machine* machine_;
  const WtpgSchedulerBase* graph_;
  Clock::time_point run_start_;
  std::vector<double> host_s_;  // Host seconds since run start, per sample.
};

// ---------------------------------------------------------------------------
// Runs

enum class Source { kExperiment1, kOpenWorld };

struct RunSpec {
  std::string id;  // Scheduler label plus sub-seed, e.g. "LOW/s3".
  SimConfig config;
  Source source = Source::kExperiment1;
};

WorkloadGenerator MakeGenerator(const RunSpec& spec) {
  const SimConfig& c = spec.config;
  const ErrorModel error{c.workload.error_sigma};
  if (spec.source == Source::kOpenWorld) {
    // The mix carries its Zipf skew (spec.zipf_theta) already.
    return WorkloadGenerator(MakeOpenWorldMix(OpenWorldSpec{}),
                             c.workload.arrival_rate_tps, c.machine.dd, error,
                             c.run.seed);
  }
  return WorkloadGenerator(Pattern::Experiment1(c.machine.num_files),
                           c.workload.arrival_rate_tps, c.machine.dd, error,
                           c.run.seed);
}

// Everything one Machine run yields.
struct RunRecord {
  RunStats stats;
  std::string problem;  // First failed check; empty when all passed.
  double run_s = 0.0;   // Machine::Run() span.
  double cpu_s = 0.0;   // Process CPU over the same span.
  double trace_export_s = 0.0;
  double telemetry_export_s = 0.0;
  double check_s = 0.0;
  uint64_t trace_events = 0;
  uint64_t trace_bytes = 0;
  uint64_t telemetry_rows = 0;
  uint64_t decision_retries = 0;
  uint64_t events = 0;  // Simulated events, probe events excluded.
  // Instrumented runs only.
  HookTimes hooks;
  uint64_t wtpg_evals = 0;
  double cache_hit_rate = 0.0;
  double host_growth = 0.0;
  size_t in_flight_max = 0;
  size_t queue_depth_max = 0;
  size_t locked_files_max = 0;
  size_t nodes_max = 0;
  size_t edges_max = 0;
};

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// Writes the run's trace JSONL (with the telemetry gauges merged in) and
// telemetry CSV the way a user explaining the run would, times both, and
// removes the files again.
bool ExportArtifacts(const Machine& machine, const RunStats& stats,
                     const std::string& out_dir, RunRecord* rec) {
  const std::string trace_path = out_dir + "/trace.jsonl";
  const std::string csv_path = out_dir + "/telemetry.csv";
  Clock::time_point start = Clock::now();
  const SimConfig& c = machine.config();
  TraceMeta meta;
  meta.scheduler = SchedulerKindName(c.scheduler);
  meta.num_nodes = c.machine.num_nodes;
  meta.num_files = c.machine.num_files;
  meta.dd = c.machine.dd;
  meta.seed = c.run.seed;
  const std::vector<GaugeTrack> gauges =
      ToGaugeTracks(machine.telemetry()->store());
  const Status trace_ok =
      WriteJsonlTrace(machine.trace().Snapshot(), meta, stats.counters,
                      machine.trace().dropped(), trace_path, &gauges);
  rec->trace_export_s = Since(start);
  start = Clock::now();
  const Status csv_ok =
      WriteTelemetryCsv(machine.telemetry()->store(), csv_path);
  rec->telemetry_export_s = Since(start);
  rec->trace_bytes = FileBytes(trace_path);
  std::error_code ec;
  std::filesystem::remove(trace_path, ec);
  std::filesystem::remove(csv_path, ec);
  return trace_ok.ok() && csv_ok.ok() && rec->trace_bytes > 0;
}

// Sets up, runs, exports and checks one Machine run. `instrument` selects
// the timing subclass and the probe; a run that records its trace exports
// it into `export_dir` unless that is empty. rec.problem names the first
// failed check; empty when all passed.
RunRecord RunMachine(const RunSpec& spec, bool instrument,
                     const std::string& export_dir, Spans* spans,
                     int parent) {
  RunRecord rec;
  const int span = spans->Begin(spec.id, parent);
  std::unique_ptr<Scheduler> scheduler =
      instrument ? MakeTimedScheduler(spec.config, &rec.hooks)
                 : CreateScheduler(spec.config);
  Machine machine(spec.config, MakeGenerator(spec), std::move(scheduler));

  Probe probe(&machine);
  const double cpu0 = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  if (instrument) probe.Start(start);
  rec.stats = machine.Run();
  rec.run_s = Since(start);
  rec.cpu_s = ProcessCpuSeconds() - cpu0;
  rec.decision_retries = machine.decision_retries();
  rec.events = machine.simulator().events_executed() - probe.fired();
  rec.trace_events = machine.trace().total_recorded();
  if (machine.telemetry() != nullptr) {
    rec.telemetry_rows = machine.telemetry()->store().total_rows();
  }
  if (spec.config.run.trace_enabled &&
      (rec.trace_events == 0 || rec.telemetry_rows == 0)) {
    rec.problem = "trace or telemetry recorded nothing";
  }

  if (spec.config.run.trace_enabled && !export_dir.empty()) {
    const int export_span = spans->Begin("export", span);
    if (!ExportArtifacts(machine, rec.stats, export_dir, &rec)) {
      rec.problem = "trace or telemetry export failed";
    }
    spans->End(export_span);
  }

  if (instrument) {
    if (const auto* wtpg =
            dynamic_cast<const WtpgSchedulerBase*>(&machine.scheduler())) {
      rec.wtpg_evals = wtpg->wtpg_evals();
      rec.cache_hit_rate = Ratio(
          static_cast<double>(wtpg->cache_hits()),
          static_cast<double>(wtpg->cache_hits() + wtpg->cache_misses()));
    }
    rec.host_growth = probe.HostGrowth(rec.run_s);
    rec.in_flight_max = probe.in_flight_max;
    rec.queue_depth_max = probe.queue_depth_max;
    rec.locked_files_max = probe.locked_files_max;
    rec.nodes_max = probe.nodes_max;
    rec.edges_max = probe.edges_max;
  }

  const int check_span = spans->Begin("check", span);
  start = Clock::now();
  const bool serializable =
      CheckConflictSerializability(machine.schedule_log()).serializable;
  rec.check_s = Since(start);
  spans->End(check_span);
  spans->End(span);
  if (!serializable) rec.problem = "committed history not serializable";
  if (rec.stats.completions == 0) rec.problem = "no transaction committed";
  return rec;
}

// The simulated outcome the benchmark records and compares: completions,
// response-time mean and percentiles, throughput, restarts, utilizations
// and in-flight at the horizon. Host-side retry counters are left out.
std::string OutcomeJson(const RunStats& s) {
  return "{\"completions\":" + std::to_string(s.completions) +
         ",\"mean_response_s\":" + Num(s.mean_response_s) +
         ",\"median_response_s\":" + Num(s.median_response_s) +
         ",\"p95_response_s\":" + Num(s.p95_response_s) +
         ",\"p99_response_s\":" + Num(s.p99_response_s) +
         ",\"throughput_tps\":" + Num(s.throughput_tps) +
         ",\"restarts\":" + std::to_string(s.restarts) +
         ",\"cn_utilization\":" + Num(s.cn_utilization) +
         ",\"mean_dpn_utilization\":" + Num(s.mean_dpn_utilization) +
         ",\"max_dpn_utilization\":" + Num(s.max_dpn_utilization) +
         ",\"in_flight_at_end\":" + std::to_string(s.in_flight_at_end) + "}";
}

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string out_dir = ".";
  int memory_unit = -1;  // >= 0: run only this unit of work (peak_rss_mb).
};

// An invocation simulates several draws of its workload, sub-seeds
// SubSeed(seed, 0), SubSeed(seed, 1), ...: the same --seed always gives the
// same inputs, and several draws keep one seed's luck out of the figures.
// Host cost varies by about 10 % from seed to seed on the saturated runs.
uint64_t SubSeed(uint64_t seed, int i) {
  return seed * 1000 + static_cast<uint64_t>(i);
}

// Scaled seconds (HostSpeed::Scaled) of each timed unit (one run or one
// search), one value per repeat. A metric sums the median repeat of each
// unit in its group. Scaled times of a unit's repeats read alike until a
// round's reference and its runs meet different host speeds; the median
// ignores such a round, where the fastest repeat would pick it.
class UnitTimes {
 public:
  void Add(const std::string& unit, const std::string& group,
           double seconds) {
    Entry& entry = units_[unit];
    entry.group = group;
    entry.seconds.push_back(seconds);
  }
  // Sum over the units of `group`; the empty group sums every unit.
  double Sum(const std::string& group) const {
    double sum = 0.0;
    for (const auto& [unit, entry] : units_) {
      if (group.empty() || entry.group == group) sum += Median(entry.seconds);
    }
    return sum;
  }

 private:
  struct Entry {
    std::string group;
    std::vector<double> seconds;
  };
  std::map<std::string, Entry> units_;
};

// Everything a workload reports.
struct Result {
  UnitTimes wall;               // End-to-end work, per run or search.
  double setup_s = 1e9;         // Median of the fastest set-up burst.
  std::vector<double> peak_rss_mb;  // One sample per memory unit.
  HostSpeed speed;              // Sampled once per round.
  Samples samples;              // Per-layer values, one per round.
  Tally tally;
  std::map<std::string, std::string> outcomes;  // Run id -> outcome JSON.
  std::vector<std::string> notes;               // Printed before the report.

  // Records a run's outcome; a repeat of a run must reproduce it.
  bool Outcome(const std::string& id, const std::string& json) {
    return outcomes.emplace(id, json).first->second == json;
  }
};

// Set-up takes microseconds to milliseconds, so it is timed in bursts of at
// least kSetupRepeats repetitions and kSetupBurstSeconds, one burst before
// every round. setup_s is the median repetition of the fastest burst, not
// scaled. A burst is too short for the reference to track: host speed
// switches from one second to the next (on a 4-core Xeon VM the
// saturated_horizon set-up read 0.12 ms or 0.21 ms by the second). Over
// runs on different seeds the fastest burst read within 5 %, where the
// scaled median of all bursts spread to 9 %.
constexpr size_t kSetupRepeats = 3;
constexpr double kSetupBurstSeconds = 0.002;

void SetupBurst(const std::function<void()>& setup, Result* res) {
  std::vector<double> burst;
  const Clock::time_point start = Clock::now();
  while (burst.size() < kSetupRepeats || Since(start) < kSetupBurstSeconds) {
    const Clock::time_point t = Clock::now();
    setup();
    burst.push_back(Since(t));
  }
  res->setup_s = std::min(res->setup_s, Median(burst));
}

// Runs rounds over `subs` sub-seeds, `round(i, span)` for sub-seed
// i = 0, 1, ..., subs - 1, 0, 1, ..., until the next round would end past
// `seconds` of host time, judged by that sub-seed's previous round; at least
// one pass over all sub-seeds. A pass that does not fit whole is cut short,
// so every run gets as many repeats as the time allows. Each round is
// preceded by a sample of the host speed and a burst of `setup`, the whole
// set-up of a pass.
void RunPasses(double seconds, int subs, const std::function<void()>& setup,
               Spans* spans, int parent, Result* res,
               const std::function<void(int sub, int span)>& round) {
  const Clock::time_point start = Clock::now();
  std::vector<double> round_s(static_cast<size_t>(subs));
  for (int n = 0;; ++n) {
    const int i = n % subs;
    const Clock::time_point round_start = Clock::now();
    const int span = spans->Begin(
        "pass " + std::to_string(n / subs) + " s" + std::to_string(i), parent);
    res->speed.Sample();
    SetupBurst(setup, res);
    round(i, span);
    spans->End(span);
    round_s[static_cast<size_t>(i)] = Since(round_start);
    const double next_s = round_s[static_cast<size_t>((n + 1) % subs)];
    if (n + 1 >= subs && Since(start) + next_s > seconds) break;
  }
}

// ---- saturated_horizon and openworld_observed ----

// Sub-seeds per invocation and horizons. On a 4-core Xeon VM a
// saturated_horizon pass takes about 14 s, so a 40 s run repeats each run
// two or three times; an openworld_observed pass about 10 s, repeated four
// times. The open-world runs' host cost varies by a fifth about its mean
// with where the DPN crashes fall, hence the many sub-seeds: with 24 of
// them, LOW's share of wall_s still spread 9 % over five seeds.
constexpr int kSaturatedSubSeeds = 8;
constexpr double kSaturatedTps = 1.2;
constexpr double kSaturatedHorizonMs = 2'000'000;
constexpr int kOpenWorldSubSeeds = 36;
constexpr double kOpenWorldTps = 0.8;
constexpr double kOpenWorldHorizonMs = 5'000'000;

int MachineSubSeeds(const Options& opt) {
  return opt.workload == "openworld_observed" ? kOpenWorldSubSeeds
                                              : kSaturatedSubSeeds;
}

SimConfig MachineConfig(const Options& opt, SchedulerKind kind,
                        uint64_t seed) {
  if (opt.workload == "openworld_observed") {
    const OpenWorldSpec spec;
    SimConfig c = MakeConfig(kind, spec.num_files, /*dd=*/1, kOpenWorldTps);
    c.workload.zipf_theta = spec.zipf_theta;
    c.run.tail_metrics = true;
    c.run.tail_sketch = true;
    c.run.horizon_ms = kOpenWorldHorizonMs;
    c.fault.dpn_mttf_ms = 2'000'000;
    c.fault.dpn_mttr_ms = 15'000;
    c.run.trace_enabled = true;
    c.run.telemetry_sample_ms = 10'000;
    c.run.seed = seed;
    return c;
  }
  SimConfig c = MakeConfig(kind, 16, /*dd=*/1, kSaturatedTps);
  c.run.horizon_ms = kSaturatedHorizonMs;
  c.run.seed = seed;
  return c;
}

std::vector<RunSpec> MachineRound(const Options& opt, int sub) {
  std::vector<RunSpec> specs;
  const bool openworld = opt.workload == "openworld_observed";
  for (SchedulerKind kind :
       openworld ? SharedSchedulers() : MachineSchedulers()) {
    RunSpec spec;
    spec.id = std::string(SchedulerKindName(kind)) + "/s" +
              std::to_string(sub);
    spec.config = MachineConfig(opt, kind, SubSeed(opt.seed, sub));
    spec.source = openworld ? Source::kOpenWorld : Source::kExperiment1;
    specs.push_back(spec);
  }
  return specs;
}

// Host nanoseconds per transaction of the workload layer alone: replays a
// generator with the run's source and seed for its arrival count.
double ReplayWorkload(const RunSpec& spec, uint64_t arrivals) {
  const Clock::time_point start = Clock::now();
  WorkloadGenerator gen = MakeGenerator(spec);
  SimTime sink = 0;
  for (uint64_t i = 0; i < arrivals; ++i) {
    sink += gen.NextInterarrival();
    sink += static_cast<SimTime>(gen.NextTransaction()->num_steps());
  }
  const double s = Since(start);
  return sink > 0 && arrivals > 0 ? 1e9 * s / static_cast<double>(arrivals)
                                  : 0.0;
}

// Adds one plain run and its instrumented twin to the per-layer values of a
// round.
void AddLayerValues(const std::string& s, const RunRecord& plain,
                    const RunRecord& traced,
                    std::map<std::string, double>* round) {
  const HookTimes& h = traced.hooks;
  auto& m = *round;
  m["sched.startup.calls." + s] = static_cast<double>(h.startup_calls);
  m["sched.startup.s." + s] = h.startup_s;
  m["sched.startup.grant_ratio." + s] =
      Ratio(static_cast<double>(h.startup_grants),
            static_cast<double>(h.startup_calls));
  m["sched.lock.calls." + s] = static_cast<double>(h.lock_calls);
  m["sched.lock.s." + s] = h.lock_s;
  m["sched.lock.grant_ratio." + s] = Ratio(
      static_cast<double>(h.lock_grants), static_cast<double>(h.lock_calls));
  m["sched.admit.s." + s] = h.admit_s;
  m["sched.grant.s." + s] = h.grant_s;
  m["sched.commit.s." + s] = h.commit_s;
  m["sched.step.s." + s] = h.step_s;
  m["sched.cache.hit_rate." + s] = traced.cache_hit_rate;
  m["machine.run_s." + s] = plain.run_s;
  m["machine.self_s." + s] = traced.run_s - h.total_s();
  m["machine.decision_retries." + s] =
      static_cast<double>(traced.decision_retries);
  m["machine.events_per_commit." + s] =
      Ratio(static_cast<double>(traced.events),
            static_cast<double>(traced.stats.completions));
  m["machine.in_flight_max." + s] = static_cast<double>(traced.in_flight_max);
  m["lock.locked_files_max." + s] =
      static_cast<double>(traced.locked_files_max);
  m["sim.events." + s] = static_cast<double>(traced.events);
  m["sim.ns_per_event." + s] =
      1e9 * Ratio(traced.run_s, static_cast<double>(traced.events));
  m["sim.queue_depth_max." + s] = static_cast<double>(traced.queue_depth_max);
  m["sim.host_growth." + s] = traced.host_growth;
  if (s != "asl") {
    m["wtpg.evals." + s] = static_cast<double>(traced.wtpg_evals);
    m["wtpg.nodes_max." + s] = static_cast<double>(traced.nodes_max);
    m["wtpg.edges_max." + s] = static_cast<double>(traced.edges_max);
  }
}

uint64_t CounterValue(const RunStats& stats, const std::string& name) {
  for (const auto& [key, value] : stats.counters) {
    if (key == name) return value;
  }
  return 0;
}

// Runs one plain Machine run, records its outcome and counts it as an
// operation: it fails when a check of the run fails or when a repeat of
// the run simulates something else than its first occurrence. A run that
// records its trace exports it in the traced pass only: the export takes
// about six times as long as the run, and wall_s leaves it out.
RunRecord PlainRun(const RunSpec& spec, const Options& opt, Spans* spans,
                   int span, Result* res) {
  RunRecord rec = RunMachine(spec, /*instrument=*/false,
                             opt.trace ? opt.out_dir : "", spans, span);
  const bool repeatable = res->Outcome(spec.id, OutcomeJson(rec.stats));
  res->tally.Op(rec.problem.empty() && repeatable,
                spec.id + ": " +
                    (repeatable ? rec.problem : "repeat simulated otherwise"));
  return rec;
}

// Runs the instrumented twin of `plain`; it must pass the same checks and
// simulate exactly the same run.
RunRecord TracedRun(const RunSpec& spec, const RunRecord& plain, Spans* spans,
                    int span, Result* res) {
  RunRecord rec = RunMachine(spec, /*instrument=*/true, "", spans, span);
  const bool same = rec.stats.ToJson() == plain.stats.ToJson();
  res->tally.Op(rec.problem.empty() && same,
                spec.id + " (traced): " +
                    (same ? rec.problem
                          : "simulated statistics differ from untraced"));
  return rec;
}

void RunMachineWorkload(const Options& opt, Spans* spans, int root,
                        Result* res) {
  const auto setup = [&] {
    for (int i = 0; i < MachineSubSeeds(opt); ++i) {
      for (const RunSpec& spec : MachineRound(opt, i)) {
        Machine machine(spec.config, MakeGenerator(spec),
                        CreateScheduler(spec.config));
      }
    }
  };
  RunPasses(opt.seconds, MachineSubSeeds(opt), setup, spans, root, res,
            [&](int sub, int span) {
    const std::vector<RunSpec> specs = MachineRound(opt, sub);
    std::vector<RunRecord> plain;
    double cpu = 0.0;
    for (const RunSpec& spec : specs) {
      plain.push_back(PlainRun(spec, opt, spans, span, res));
      res->wall.Add(spec.id, Lower(spec.config.scheduler),
                    res->speed.Scaled(plain.back().run_s));
      cpu += plain.back().cpu_s;
    }
    if (!opt.trace) return;

    // Traced pass: the same runs with the timing subclass and the probe.
    std::map<std::string, double> layer;
    double plain_run = 0.0;
    double traced_run = 0.0;
    double record = 0.0;
    double trace_export = 0.0;
    double telemetry_export = 0.0;
    double check = 0.0;
    double trace_events = 0.0;
    double trace_bytes = 0.0;
    double telemetry_rows = 0.0;
    double crash_victims = 0.0;
    double backoff_restarts = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const RunSpec& spec = specs[i];
      const RunRecord& p = plain[i];
      const RunRecord traced = TracedRun(spec, p, spans, span, res);
      AddLayerValues(Lower(spec.config.scheduler), p, traced, &layer);
      plain_run += p.run_s;
      traced_run += traced.run_s;
      check += p.check_s;
      trace_export += p.trace_export_s;
      telemetry_export += p.telemetry_export_s;
      trace_events += static_cast<double>(p.trace_events);
      trace_bytes += static_cast<double>(p.trace_bytes);
      telemetry_rows += static_cast<double>(p.telemetry_rows);
      crash_victims +=
          static_cast<double>(CounterValue(p.stats, "fault.crash_victims"));
      backoff_restarts +=
          static_cast<double>(CounterValue(p.stats, "fault.backoff_restarts"));
      if (spec.config.run.trace_enabled) {
        // Recording cost: the run minus a sinks-off twin on the same seed.
        RunSpec off = spec;
        off.id += "/sinks-off";
        off.config.run.trace_enabled = false;
        off.config.run.telemetry_sample_ms = 0.0;
        const RunRecord twin =
            RunMachine(off, /*instrument=*/false, "", spans, span);
        const bool same = OutcomeJson(twin.stats) == OutcomeJson(p.stats);
        res->tally.Op(twin.problem.empty() && same,
                      off.id + ": " +
                          (same ? twin.problem
                                : "recording changed the simulated outcome"));
        record += p.run_s - twin.run_s;
      }
    }
    for (const auto& [name, value] : layer) res->samples.Add(name, value);
    res->samples.Add("driver.cpu_s", cpu);
    res->samples.Add("driver.parallel_efficiency", Ratio(cpu, plain_run));
    res->samples.Add("bench.trace_overhead",
                     Ratio(traced_run, plain_run) - 1.0);
    res->samples.Add("analysis.check_s", check);
    res->samples.Add("trace.events", trace_events);
    res->samples.Add("trace.bytes", trace_bytes);
    res->samples.Add("trace.record_s", record);
    res->samples.Add("trace.export_s", trace_export);
    res->samples.Add("telemetry.rows", telemetry_rows);
    res->samples.Add("telemetry.export_s", telemetry_export);
    res->samples.Add("fault.crash_victims", crash_victims);
    res->samples.Add("fault.backoff_restarts", backoff_restarts);
    // Arrivals do not depend on the scheduler; the first run's will do.
    res->samples.Add("workload.ns_per_txn",
                     ReplayWorkload(specs[0], plain[0].stats.arrivals));
  });
}

// ---- paper_rt70 ----

// Table 2 of the paper: TPS at RT = 70 s, 16 files, DD 1.
double PaperTable2(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNodc: return 1.04;
    case SchedulerKind::kAsl: return 0.72;
    case SchedulerKind::kGow: return 0.67;
    case SchedulerKind::kLow: return 0.65;
    case SchedulerKind::kC2pl: return 0.35;
    case SchedulerKind::kOpt: return 0.24;
    default: return 0.0;
  }
}

// The paper's ordering at DD 1: NODC > {ASL, GOW, LOW} > C2PL > OPT.
bool PaperOrdering(const std::map<SchedulerKind, double>& tps) {
  const double wtpg_max = std::max({tps.at(SchedulerKind::kAsl),
                                    tps.at(SchedulerKind::kGow),
                                    tps.at(SchedulerKind::kLow)});
  const double wtpg_min = std::min({tps.at(SchedulerKind::kAsl),
                                    tps.at(SchedulerKind::kGow),
                                    tps.at(SchedulerKind::kLow)});
  return tps.at(SchedulerKind::kNodc) > wtpg_max &&
         wtpg_min > tps.at(SchedulerKind::kC2pl) &&
         tps.at(SchedulerKind::kC2pl) > tps.at(SchedulerKind::kOpt);
}

struct Search {
  SchedulerKind kind;
  int dd;
  SimConfig config;
};

// The effort of each search: one seed per probe, as the paper and the exp_*
// binaries default to, at the horizon and bisection depth of the suite's
// quick mode (WTPG_FAST=1). The tolerance is 0, so every search makes all
// its bisection steps: its probe count, and so its host cost, does not
// depend on where a seed happens to meet the tolerance. At the suite's
// default 2,000 s one pass of searches takes 12 s and its cost varies by
// 20-40 % per scheduler with the seed's bisection path, too much to fit
// enough searches in a run.
constexpr double kRt70HorizonMs = 500'000;
constexpr int kRt70Iters = 6;
constexpr double kRt70TolS = 0.0;
constexpr int kRt70Seeds = 1;
// One pass over the sub-seeds is 180 searches, about 30 s on a 4-core Xeon
// VM. A search's cost depends on the lambdas its seed's bisection probes:
// with 10 sub-seeds, C2PL's share of wall_s spread 9 % over five seeds.
constexpr int kRt70SubSeeds = 15;

// FindRt70's search with the seed exposed: Table-1 defaults, 16 files.
std::vector<Search> Rt70Searches(uint64_t seed) {
  std::vector<Search> searches;
  for (int dd : {1, 4}) {
    for (SchedulerKind kind : PaperSchedulers()) {
      SimConfig c = MakeConfig(kind, 16, dd, /*arrival_rate_tps=*/1.0);
      c.run.horizon_ms = kRt70HorizonMs;
      c.run.seed = seed;
      searches.push_back({kind, dd, c});
    }
  }
  return searches;
}

void RunPaperRt70(const Options& opt, Spans* spans, int root, Result* res) {
  const int workers = ResolveJobs(0);  // The driver's default pool: nproc.
  const auto setup = [&] {
    const Pattern pattern = Pattern::Experiment1(16);
    for (int i = 0; i < kRt70SubSeeds; ++i) {
      const std::vector<Search> searches = Rt70Searches(SubSeed(opt.seed, i));
    }
  };
  const Pattern pattern = Pattern::Experiment1(16);
  RunPasses(opt.seconds, kRt70SubSeeds, setup, spans, root, res,
            [&](int sub, int span) {
    const uint64_t seed = SubSeed(opt.seed, sub);
    const std::string suffix = "/s" + std::to_string(sub);
    std::map<SchedulerKind, double> tps_dd1;
    std::vector<std::pair<std::string, std::string>> ops;  // (id, problem)
    double wall = 0.0;
    double cpu = 0.0;
    std::string fidelity;
    for (const Search& s : Rt70Searches(seed)) {
      const std::string id = std::string(SchedulerKindName(s.kind)) + "/dd" +
                             std::to_string(s.dd) + suffix;
      const int search_span = spans->Begin(id, span);
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      const OperatingPoint op = FindRateForResponseTime(
          s.config, pattern, kRtTargetSeconds, kLambdaLo, kLambdaHi,
          kRt70Seeds, kRt70Iters, kRt70TolS, /*jobs=*/0);
      const double t = Since(start);
      cpu += ProcessCpuSeconds() - cpu0;
      spans->End(search_span);
      wall += t;
      res->wall.Add(id, Lower(s.kind), res->speed.Scaled(t));
      const bool inside = op.lambda_tps >= kLambdaLo &&
                          op.lambda_tps <= kLambdaHi &&
                          op.throughput_tps > 0.0;
      const bool repeatable = res->Outcome(
          id, "{\"lambda_tps\":" + Num(op.lambda_tps) +
                  ",\"throughput_tps\":" + Num(op.throughput_tps) +
                  ",\"mean_response_s\":" + Num(op.mean_response_s) +
                  ",\"converged\":" + (op.converged ? "true" : "false") + "}");
      ops.emplace_back(id, !repeatable ? "repeat found another point"
                           : !inside   ? "operating point outside the bracket"
                                       : "");
      if (s.dd == 1) {
        tps_dd1[s.kind] = op.throughput_tps;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.3f (paper %.2f)",
                      SchedulerKindName(s.kind), op.throughput_tps,
                      PaperTable2(s.kind));
        fidelity += buf;
      }
    }
    // A DD-1 search also fails when the six together break the paper's
    // ordering.
    const bool ordered = PaperOrdering(tps_dd1);
    for (auto& [id, problem] : ops) {
      const bool dd1 = id.find("/dd1/") != std::string::npos;
      if (problem.empty() && !ordered && dd1) {
        problem = "DD-1 TPS break the paper's ordering "
                  "NODC > {ASL, GOW, LOW} > C2PL > OPT";
      }
      res->tally.Op(problem.empty(), id + ": " + problem);
    }
    if (res->notes.empty()) {
      res->notes.push_back(
          "fidelity: TPS at RT = 70 s, 16 files, DD 1, 500 s horizon:" +
          fidelity);
      res->notes.push_back(
          "fidelity: DD 4 is unvalidated (the paper gives no numbers there)");
    }
    if (!opt.trace) return;

    // Traced pass: the driver builds its machines itself, so the searches
    // only get the process CPU clock; the machine-level layers come from a
    // replay of the search's saturated bracket probe (lambda = kLambdaHi,
    // DD 1, the same seed), plain and instrumented.
    std::map<std::string, double> layer;
    double plain_run = 0.0;
    double traced_run = 0.0;
    double check = 0.0;
    RunSpec low_spec;
    uint64_t low_arrivals = 0;
    for (SchedulerKind kind : MachineSchedulers()) {
      RunSpec spec;
      spec.id = std::string("bracket/") + SchedulerKindName(kind) + suffix;
      spec.config = MakeConfig(kind, 16, /*dd=*/1, kLambdaHi);
      spec.config.run.horizon_ms = kRt70HorizonMs;
      spec.config.run.seed = seed;
      const RunRecord plain = PlainRun(spec, opt, spans, span, res);
      const RunRecord traced = TracedRun(spec, plain, spans, span, res);
      AddLayerValues(Lower(kind), plain, traced, &layer);
      plain_run += plain.run_s;
      traced_run += traced.run_s;
      check += plain.check_s;
      if (kind == SchedulerKind::kLow) {
        low_spec = spec;
        low_arrivals = plain.stats.arrivals;
      }
    }
    for (const auto& [name, value] : layer) res->samples.Add(name, value);
    res->samples.Add("driver.cpu_s", cpu);
    res->samples.Add("driver.parallel_efficiency",
                     Ratio(cpu, static_cast<double>(workers) * wall));
    res->samples.Add("bench.trace_overhead",
                     Ratio(traced_run, plain_run) - 1.0);
    res->samples.Add("analysis.check_s", check);
    res->samples.Add("workload.ns_per_txn",
                     ReplayWorkload(low_spec, low_arrivals));
  });
}

// ---- peak_rss_mb ----

// Peak memory is measured per unit of work, each unit in a fresh process of
// its own: one Machine run (with its checks), or one search of paper_rt70.
// A process that runs unit after unit keeps what the allocator holds on to
// between them, and how much that is varies from one invocation to the next
// (on a 4-core Xeon VM the same openworld_observed seed peaked at 162 to
// 191 MB over 48 runs in one process). A unit's peak repeats to within
// 1 % for the same sub-seed but steps with it, as buffers double: 67 to
// 98 MB over the open-world runs, 12 to 18 MB over the saturated ones, and
// about 5 MB per search.
// peak_rss_mb is therefore the mean over the units, not their median, of
// the first MemorySubSeeds() sub-seeds.
int MemorySubSeeds(const Options& opt) {
  return opt.workload == "openworld_observed" ? 12 : 1;
}

int MemoryUnitsPerSubSeed(const Options& opt) {
  return opt.workload == "paper_rt70"
             ? static_cast<int>(Rt70Searches(0).size())
             : static_cast<int>(MachineRound(opt, 0).size());
}

// Runs unit opt.memory_unit in this process; false, with the reason on
// stderr, when a check of it fails.
bool RunMemoryUnit(const Options& opt) {
  const int per_sub = MemoryUnitsPerSubSeed(opt);
  const int sub = opt.memory_unit / per_sub;
  const size_t k = static_cast<size_t>(opt.memory_unit % per_sub);
  std::string problem;
  if (opt.workload == "paper_rt70") {
    const Search s = Rt70Searches(SubSeed(opt.seed, sub))[k];
    const OperatingPoint op = FindRateForResponseTime(
        s.config, Pattern::Experiment1(16), kRtTargetSeconds, kLambdaLo,
        kLambdaHi, kRt70Seeds, kRt70Iters, kRt70TolS, /*jobs=*/0);
    if (op.throughput_tps <= 0.0) problem = "search found no throughput";
  } else {
    Spans spans(false);
    problem = RunMachine(MachineRound(opt, sub)[k], /*instrument=*/false, "",
                         &spans, -1)
                  .problem;
  }
  if (!problem.empty()) {
    std::fprintf(stderr, "hostbench: memory unit %d: %s\n", opt.memory_unit,
                 problem.c_str());
  }
  return problem.empty();
}

// Runs every memory unit in a child process of `self` and keeps each one's
// peak resident set. Call it before this process allocates anything sizeable:
// Linux carries a parent's high-water mark over exec into the child's
// ru_maxrss, so it must stay below any unit's own peak.
void MeasurePeakRss(const Options& opt, const char* self, Result* res) {
  const int units = MemorySubSeeds(opt) * MemoryUnitsPerSubSeed(opt);
  for (int unit = 0; unit < units; ++unit) {
    std::vector<std::string> args = {
        self, "--workload=" + opt.workload,
        "--seed=" + std::to_string(opt.seed),
        "--memory-unit=" + std::to_string(unit)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int status = 0;
    rusage usage{};
    bool ok = posix_spawnp(&pid, self, nullptr, nullptr, argv.data(),
                           environ) == 0;
    if (ok) {
      pid_t waited = -1;
      do {
        waited = wait4(pid, &status, 0, &usage);
      } while (waited < 0 && errno == EINTR);
      ok = waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    res->tally.Op(ok, "memory unit " + std::to_string(unit) +
                          ": the process running it failed");
    // Linux reports ru_maxrss in KiB.
    if (ok) res->peak_rss_mb.push_back(usage.ru_maxrss / 1024.0);
  }
}

// ---------------------------------------------------------------------------
// Report

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndMetrics() {
  std::vector<MetricDef> defs = {{"setup_s", "s"}, {"wall_s", "s"}};
  for (SchedulerKind kind : SharedSchedulers()) {
    defs.push_back({"wall_s." + Lower(kind), "s"});
  }
  defs.push_back({"peak_rss_mb", "MB"});
  return defs;
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> defs = {{"driver.cpu_s", "s"},
                                 {"driver.parallel_efficiency", "ratio"}};
  const std::vector<MetricDef> per_sched = {
      {"machine.run_s", "s"},
      {"machine.self_s", "s"},
      {"machine.decision_retries", "count"},
      {"machine.events_per_commit", "ratio"},
      {"machine.in_flight_max", "count"},
      {"sched.startup.calls", "count"},
      {"sched.startup.s", "s"},
      {"sched.startup.grant_ratio", "ratio"},
      {"sched.lock.calls", "count"},
      {"sched.lock.s", "s"},
      {"sched.lock.grant_ratio", "ratio"},
      {"sched.admit.s", "s"},
      {"sched.grant.s", "s"},
      {"sched.commit.s", "s"},
      {"sched.step.s", "s"},
      {"sched.cache.hit_rate", "ratio"},
      {"wtpg.evals", "count"},
      {"wtpg.nodes_max", "count"},
      {"wtpg.edges_max", "count"},
      {"lock.locked_files_max", "count"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.queue_depth_max", "count"},
      {"sim.host_growth", "ratio"},
  };
  for (const MetricDef& def : per_sched) {
    for (SchedulerKind kind : MachineSchedulers()) {
      // ASL keeps no precedence graph.
      if (def.name.rfind("wtpg.", 0) == 0 && kind == SchedulerKind::kAsl) {
        continue;
      }
      defs.push_back({def.name + "." + Lower(kind), def.unit});
    }
  }
  const std::vector<MetricDef> tail = {
      {"workload.ns_per_txn", "ns"},  {"trace.events", "count"},
      {"trace.record_s", "s"},        {"trace.export_s", "s"},
      {"trace.bytes", "bytes"},       {"telemetry.rows", "count"},
      {"telemetry.export_s", "s"},    {"fault.crash_victims", "count"},
      {"fault.backoff_restarts", "count"}, {"analysis.check_s", "s"},
      {"bench.trace_overhead", "ratio"},  {"bench.reference_s", "s"}};
  defs.insert(defs.end(), tail.begin(), tail.end());
  return defs;
}

std::string ReportJson(const Options& opt, const Result& res) {
  std::string metrics;
  for (const MetricDef& def :
       opt.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    double value = 0.0;
    if (def.name == "setup_s") {
      value = res.setup_s;
    } else if (def.name == "peak_rss_mb") {
      value = Mean(res.peak_rss_mb);
    } else if (def.name.rfind("wall_s", 0) == 0) {
      const size_t dot = def.name.find('.');
      value = res.wall.Sum(dot == std::string::npos
                               ? ""
                               : def.name.substr(dot + 1));
    } else if (def.name == "bench.reference_s") {
      value = res.speed.best_s();
    } else {
      value = res.samples.MedianOf(def.name);
    }
    if (!metrics.empty()) metrics += ",";
    metrics += Quoted(def.name) + ":{\"value\":" + Num(value) +
               ",\"unit\":" + Quoted(def.unit) + "}";
  }
  std::string failures;
  for (const std::string& f : res.tally.failures) {
    if (!failures.empty()) failures += ",";
    failures += Quoted(f);
  }
  std::string outcomes;
  for (const auto& [id, json] : res.outcomes) {
    if (!outcomes.empty()) outcomes += ",";
    outcomes += Quoted(id) + ":" + json;
  }
  return "{\"stamp\":" + StampJson() +
         ",\"attempted\":" + std::to_string(res.tally.attempted) +
         ",\"failed\":" + std::to_string(res.tally.failed) +
         ",\"failures\":[" + failures + "],\"metrics\":{" + metrics +
         "},\"outcomes\":{" + outcomes + "}}";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || opt->seconds <= 0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--out-dir") {
      opt->out_dir = value;
    } else if (arg == "--memory-unit") {
      opt->memory_unit = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || opt->memory_unit < 0) {
        return false;
      }
    } else {
      return false;
    }
  }
  return opt->workload == "paper_rt70" ||
         opt->workload == "saturated_horizon" ||
         opt->workload == "openworld_observed";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload=paper_rt70|saturated_horizon|"
                 "openworld_observed [--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--out-dir=DIR] [--memory-unit=K]\n");
    return 2;
  }
  if (opt.memory_unit >= 0) return RunMemoryUnit(opt) ? 0 : 1;
  std::printf("stamp: %s\n", StampJson().c_str());
  if (!kOptimized || std::string(kSanitizer) != "none") {
    std::fprintf(stderr,
                 "hostbench: refusing to report timings from a %s build "
                 "(sanitizer: %s)\n",
                 kOptimized ? "sanitized" : "unoptimised", kSanitizer);
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "hostbench: cannot create %s: %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  // This process runs hundreds of simulations back to back. Under glibc's
  // adaptive thresholds, whether a run's large tables are mapped afresh and
  // faulted in page by page, or reused from memory the heap kept, depends on
  // what the runs before freed, and so on the seed: on a 4-core Xeon VM one
  // seed's open-world runs took 27 % longer than another's in every
  // invocation. With the thresholds pinned, every run reuses the memory the
  // process holds: the two seeds differed by 9 %, and the spread of wall_s
  // over six runs on five seeds fell from 22 % to 9 %. The memory units run
  // in child processes with the defaults.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const Clock::time_point start = Clock::now();
  Spans spans(opt.trace);
  Result res;
  if (!opt.trace) MeasurePeakRss(opt, argv[0], &res);
  // --seconds bounds the whole measurement, the memory units included.
  opt.seconds -= Since(start);
  const int root = spans.Begin(opt.workload, -1);
  if (opt.workload == "paper_rt70") {
    RunPaperRt70(opt, &spans, root, &res);
  } else {
    RunMachineWorkload(opt, &spans, root, &res);
  }
  spans.End(root);
  const std::string spans_path = opt.out_dir + "/spans-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".jsonl";
  if (!spans.Write(spans_path)) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  std::printf("host speed: reference loop best %.6f s, median %.6f s; "
              "each round's times scaled by %.3f s over its reference\n",
              res.speed.best_s(), res.speed.median_s(), HostSpeed::kNominalS);
  std::printf("%s\n", ReportJson(opt, res).c_str());
  return 0;
}
