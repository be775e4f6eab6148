// Extending the library with a custom concurrency-control scheduler.
//
// SeniorityScheduler refines C2PL with an aging rule: a grantable request
// is delayed if an *older* transaction has a pending conflicting
// declaration on the granule that could still be ordered ahead of the
// requester (no precedence path from the requester to it). This trades a
// little throughput for less age-skew in response times.
//
// The example shows the three integration points:
//   1. subclass a scheduler (or Scheduler directly),
//   2. inject it into Machine via the custom-scheduler constructor,
//   3. verify the history with the serializability checker.
//
//   ./build/examples/custom_scheduler

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/serializability.h"
#include "machine/machine.h"
#include "sched/c2pl.h"

using namespace wtpgsched;

namespace {

class SeniorityScheduler : public C2plScheduler {
 public:
  SeniorityScheduler() : C2plScheduler(/*ddtime=*/MsToTime(1.0)) {}

  std::string name() const override { return "SENIORITY"; }

 protected:
  Decision DecideLock(Transaction& txn, int step) override {
    Decision base = C2plScheduler::DecideLock(txn, step);
    if (base.kind != DecisionKind::kGrant) return base;
    // Age rule: yield to an older transaction whose conflicting access is
    // still pending *and* can still go first. The "can still go first"
    // test (the elder is not among txn's descendants) is what keeps this
    // safe: if the elder is already ordered behind us, waiting for it
    // would be a deadlock, so we do not.
    const FileId file = txn.step(step).file;
    const LockMode mode = txn.RequestModeAt(step);
    pending().PendingConflicters(file, txn.id(), mode, &conflicters_);
    Descendants(txn.id(), &descendants_);
    for (TxnId elder : conflicters_) {
      if (elder < txn.id() &&
          std::find(descendants_.begin(), descendants_.end(), elder) ==
              descendants_.end()) {
        return Decision{DecisionKind::kDelay, file};
      }
    }
    return base;
  }

 private:
  std::vector<TxnId> conflicters_;
  std::vector<TxnId> descendants_;
};

RunStats RunWith(std::unique_ptr<Scheduler> scheduler, const char* label) {
  SimConfig config;
  config.scheduler = SchedulerKind::kC2pl;  // Costs/bookkeeping defaults.
  config.machine.num_files = 16;
  config.machine.dd = 2;
  config.workload.arrival_rate_tps = 0.6;
  config.run.horizon_ms = 2'000'000;
  config.run.seed = 7;
  Machine machine(config, Pattern::Experiment1(16), std::move(scheduler));
  const RunStats stats = machine.Run();
  const SerializabilityResult check =
      CheckConflictSerializability(machine.schedule_log());
  std::printf("%-10s mean-rt=%7.1fs p95=%7.1fs tput=%5.2ftps %s\n", label,
              stats.mean_response_s, stats.p95_response_s,
              stats.throughput_tps, check.ToString().c_str());
  return stats;
}

}  // namespace

int main() {
  std::printf("Custom scheduler vs stock C2PL (Experiment 1, DD=2):\n\n");
  RunWith(std::make_unique<C2plScheduler>(MsToTime(1.0)), "C2PL");
  RunWith(std::make_unique<SeniorityScheduler>(), "SENIORITY");
  std::printf(
      "\nBoth histories must report 'serializable' — the seniority rule\n"
      "only delays grants, it never re-orders conflicting accesses\n"
      "illegally.\n");
  return 0;
}
