// Lazily-registered counters (fault.*, admission.*, health.*) must
// serialize in deterministic first-registration order regardless of the
// worker count: the CounterRegistry merge folds replicas in submission
// order, so jobs=1 and jobs=N aggregates are equal field by field even when
// some replicas register counters others never touch.

#include <string>

#include <gtest/gtest.h>

#include "driver/sim_run.h"
#include "machine/config.h"
#include "workload/pattern.h"

namespace wtpgsched {
namespace {

TEST(CounterOrderTest, FaultAndHealthCountersJobsInvariant) {
  SimConfig config;
  config.scheduler = SchedulerKind::kLow;
  config.workload.arrival_rate_tps = 1.0;
  config.run.horizon_ms = 200'000;
  config.run.seed = 21;
  // Every lazily-registered counter family at once: fault injection,
  // admission gating (via saturation), and the telemetry health verdicts.
  config.fault.dpn_mttf_ms = 150'000;
  config.fault.dpn_mttr_ms = 20'000;
  config.fault.abort_rate_per_s = 0.05;
  config.run.telemetry_sample_ms = 5'000;
  const Pattern pattern = Pattern::Experiment1(config.machine.num_files);

  const AggregateResult aggregate =
      RunAggregate(config, pattern, /*num_seeds=*/6, /*jobs=*/1);
  EXPECT_TRUE(aggregate ==
              RunAggregate(config, pattern, /*num_seeds=*/6, /*jobs=*/4));
  EXPECT_TRUE(aggregate ==
              RunAggregate(config, pattern, /*num_seeds=*/6, /*jobs=*/3));
  const std::string serial = aggregate.ToJson();
  EXPECT_NE(serial.find("counters.health.thrashing"), std::string::npos);
  EXPECT_NE(serial.find("counters.fault."), std::string::npos);
  // Decision-path observability (telemetry-gated, like the families
  // above): the machine-side retry/shortcut counters and the scheduler's
  // graph-evaluation counter must ride the same deterministic ordering.
  EXPECT_NE(serial.find("counters.sched.decision_retries"),
            std::string::npos);
  EXPECT_NE(serial.find("counters.sched.block_shortcuts"),
            std::string::npos);
  EXPECT_NE(serial.find("counters.wtpg.evals"), std::string::npos);
}

}  // namespace
}  // namespace wtpgsched
