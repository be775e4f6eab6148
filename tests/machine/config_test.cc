#include "machine/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

namespace wtpgsched {
namespace {

TEST(ConfigTest, DefaultsMatchTable1) {
  SimConfig c;
  EXPECT_EQ(c.machine.num_nodes, 8);
  EXPECT_DOUBLE_EQ(c.costs.obj_time_ms, 1000.0);
  EXPECT_DOUBLE_EQ(c.costs.msg_time_ms, 2.0);
  EXPECT_DOUBLE_EQ(c.costs.sot_time_ms, 2.0);
  EXPECT_DOUBLE_EQ(c.costs.cot_time_ms, 7.0);
  EXPECT_DOUBLE_EQ(c.costs.dd_time_ms, 1.0);
  EXPECT_DOUBLE_EQ(c.costs.kwtpg_time_ms, 10.0);
  EXPECT_DOUBLE_EQ(c.costs.chain_time_ms, 30.0);
  EXPECT_DOUBLE_EQ(c.costs.top_time_ms, 5.0);
  EXPECT_DOUBLE_EQ(c.run.horizon_ms, 2'000'000);
  EXPECT_EQ(c.low_k, 2);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, HorizonConversion) {
  SimConfig c;
  EXPECT_EQ(c.horizon(), MsToTime(2'000'000));
  EXPECT_EQ(c.warmup(), 0);
}

TEST(ConfigTest, RejectsBadDd) {
  SimConfig c;
  c.machine.dd = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.machine.dd = 9;  // > num_nodes.
  EXPECT_FALSE(c.Validate().ok());
  c.machine.dd = 8;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, RejectsNonPositiveRate) {
  SimConfig c;
  c.workload.arrival_rate_tps = 0.0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsNegativeCosts) {
  SimConfig c;
  c.costs.msg_time_ms = -1.0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsWarmupPastHorizon) {
  SimConfig c;
  c.run.warmup_ms = c.run.horizon_ms;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, RejectsBadMplAndK) {
  SimConfig c;
  c.machine.mpl = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.machine.mpl = 1;
  c.low_k = -1;
  EXPECT_FALSE(c.Validate().ok());
}

// A positive period below the 1 us clock tick rounds to zero ticks: the
// fallback timer and the telemetry sampler would reschedule at the same
// instant forever, and FaultPlan::Compile would grow its schedule without
// end. Zero (off) and one tick are fine.
TEST(ConfigTest, RejectsPeriodsBelowTheClockTick) {
  SimConfig c;
  c.run.telemetry_sample_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.run.telemetry_sample_ms = kTickMs;
  EXPECT_TRUE(c.Validate().ok());

  c = SimConfig{};
  c.run.retry_fallback_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.run.retry_fallback_ms = kTickMs;
  EXPECT_TRUE(c.Validate().ok());
  c.run.retry_fallback_ms = 0.0;
  EXPECT_TRUE(c.Validate().ok());

  c = SimConfig{};
  c.fault.dpn_mttf_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.fault.dpn_mttf_ms = 120'000;
  c.fault.dpn_mttr_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.fault.dpn_mttf_ms = kTickMs;
  c.fault.dpn_mttr_ms = kTickMs;
  EXPECT_TRUE(c.Validate().ok());

  c = SimConfig{};
  c.fault.straggler_mtbf_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.fault.straggler_mtbf_ms = 200'000;
  c.fault.straggler_duration_ms = 0.0001;
  EXPECT_FALSE(c.Validate().ok());
  c.fault.straggler_mtbf_ms = kTickMs;
  c.fault.straggler_duration_ms = kTickMs;
  EXPECT_TRUE(c.Validate().ok());
}

// An abort rate above one injection per clock tick on average spins the
// injection schedule the same way.
TEST(ConfigTest, RejectsAbortRatesAboveOnePerTick) {
  SimConfig c;
  c.fault.abort_rate_per_s = 1e12;
  EXPECT_FALSE(c.Validate().ok());
  c.fault.abort_rate_per_s = 1e6;
  EXPECT_TRUE(c.Validate().ok());
}

// Durations outside the range a run's clock can take. Every *_ms field
// must reject each with a status naming the field; NaN passes every
// ordered comparison, so no other check catches it.
constexpr double kUnconvertibleMs[] = {
    1e300, -1e300, kMaxDurationMs * 2, std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN()};

void ExpectRejectedNaming(const SimConfig& c, const std::string& name,
                          double ms) {
  const Status status = c.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name << "=" << ms;
  EXPECT_NE(status.message().find(name), std::string::npos)
      << name << "=" << ms << ": " << status.message();
}

TEST(ConfigTest, RejectsCostsBeyondTheClockRange) {
  const std::pair<const char*, double CostSection::*> fields[] = {
      {"obj_time_ms", &CostSection::obj_time_ms},
      {"msg_time_ms", &CostSection::msg_time_ms},
      {"sot_time_ms", &CostSection::sot_time_ms},
      {"cot_time_ms", &CostSection::cot_time_ms},
      {"dd_time_ms", &CostSection::dd_time_ms},
      {"kwtpg_time_ms", &CostSection::kwtpg_time_ms},
      {"chain_time_ms", &CostSection::chain_time_ms},
      {"top_time_ms", &CostSection::top_time_ms}};
  for (const auto& [name, field] : fields) {
    for (double ms : kUnconvertibleMs) {
      SimConfig c;
      c.costs.*field = ms;
      ExpectRejectedNaming(c, name, ms);
    }
    SimConfig c;
    c.costs.*field = kMaxDurationMs;
    EXPECT_TRUE(c.Validate().ok()) << name;
  }
}

TEST(ConfigTest, RejectsRunDurationsBeyondTheClockRange) {
  const std::pair<const char*, double RunSection::*> fields[] = {
      {"horizon_ms", &RunSection::horizon_ms},
      {"warmup_ms", &RunSection::warmup_ms},
      {"retry_fallback_ms", &RunSection::retry_fallback_ms},
      {"restart_delay_ms", &RunSection::restart_delay_ms},
      {"telemetry_sample_ms", &RunSection::telemetry_sample_ms}};
  for (const auto& [name, field] : fields) {
    for (double ms : kUnconvertibleMs) {
      SimConfig c;
      c.run.*field = ms;
      ExpectRejectedNaming(c, name, ms);
    }
  }
  SimConfig c;
  c.run.horizon_ms = kMaxDurationMs;
  c.run.warmup_ms = kMaxDurationMs / 2;
  c.run.retry_fallback_ms = kMaxDurationMs;
  c.run.restart_delay_ms = kMaxDurationMs;
  c.run.telemetry_sample_ms = kMaxDurationMs;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, RejectsFaultDurationsBeyondTheClockRange) {
  const std::pair<const char*, double FaultConfig::*> fields[] = {
      {"dpn_mttf_ms", &FaultConfig::dpn_mttf_ms},
      {"dpn_mttr_ms", &FaultConfig::dpn_mttr_ms},
      {"straggler_mtbf_ms", &FaultConfig::straggler_mtbf_ms},
      {"straggler_duration_ms", &FaultConfig::straggler_duration_ms},
      {"backoff_base_ms", &FaultConfig::backoff_base_ms},
      {"backoff_max_ms", &FaultConfig::backoff_max_ms}};
  for (const auto& [name, field] : fields) {
    for (double ms : kUnconvertibleMs) {
      SimConfig c;
      c.fault.*field = ms;
      ExpectRejectedNaming(c, name, ms);
    }
  }
  SimConfig c;
  for (const auto& [name, field] : fields) c.fault.*field = kMaxDurationMs;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, SchedulerKindNames) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kNodc), "NODC");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kAsl), "ASL");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kC2pl), "C2PL");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kOpt), "OPT");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kGow), "GOW");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kLow), "LOW");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kLowLb), "LOW-LB");
}

// A config differing from the defaults in every section survives
// ToJson -> FromJson -> ToJson unchanged.
TEST(ConfigJsonTest, NonDefaultConfigRoundTrips) {
  SimConfig c;
  c.machine.num_nodes = 16;
  c.machine.num_files = 32;
  c.machine.dd = 4;
  c.machine.mpl = 8;
  c.machine.quantum_objects = 0.5;
  c.machine.batch_mpl = 2;
  c.costs.obj_time_ms = 500.0;
  c.costs.msg_time_ms = 1.5;
  c.costs.sot_time_ms = 3.0;
  c.costs.cot_time_ms = 6.0;
  c.costs.dd_time_ms = 2.0;
  c.costs.kwtpg_time_ms = 12.0;
  c.costs.chain_time_ms = 25.0;
  c.costs.top_time_ms = 4.0;
  c.workload.arrival_rate_tps = 1.25;
  c.workload.error_sigma = 0.5;
  c.workload.max_arrivals = 1234;
  c.workload.zipf_theta = 0.75;
  c.run.horizon_ms = 600'000;
  c.run.warmup_ms = 50'000;
  c.run.retry_fallback_ms = 250.0;
  c.run.admission_retry_limit = 8;
  c.run.restart_delay_ms = 2500.0;
  c.run.telemetry_sample_ms = 10'000.0;
  c.run.telemetry_capacity = 4096;
  c.run.trace_enabled = true;
  c.run.trace_capacity = 1'000'000'000'000'000;
  c.run.tail_metrics = true;
  c.run.tail_sketch = true;
  c.run.seed = 987'654'321;
  c.fault.dpn_mttf_ms = 120'000.0;
  c.fault.dpn_mttr_ms = 15'000.0;
  c.fault.straggler_mtbf_ms = 200'000.0;
  c.fault.straggler_duration_ms = 20'000.0;
  c.fault.straggler_factor = 3.0;
  c.fault.abort_rate_per_s = 0.25;
  c.fault.backoff_base_ms = 100.0;
  c.fault.backoff_max_ms = 30'000.0;
  c.fault.backoff_jitter = 0.5;
  c.scheduler = SchedulerKind::kGow;
  c.low_k = 3;
  c.low_charge_per_eval = false;
  c.low_lb_weight = 2.5;
  c.opt_validate_writes = false;
  ASSERT_TRUE(c.Validate().ok());
  const std::string json = c.ToJson();
  ASSERT_NE(json, SimConfig().ToJson());
  StatusOr<SimConfig> parsed = SimConfig::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJson(), json);
}

// FromJson's error message for `json`; empty when it parses.
std::string LoadError(const std::string& json) {
  StatusOr<SimConfig> parsed = SimConfig::FromJson(json);
  return parsed.ok() ? std::string() : parsed.status().message();
}

TEST(ConfigJsonTest, RejectsUnknownKeysNamingSectionAndKey) {
  EXPECT_EQ(LoadError(R"({"machine":{"nodes":8}})"),
            "config field machine.nodes: unknown key");
  EXPECT_EQ(LoadError(R"({"costs":{"obj_ms":1}})"),
            "config field costs.obj_ms: unknown key");
  EXPECT_EQ(LoadError(R"({"workload":{"rate":1}})"),
            "config field workload.rate: unknown key");
  EXPECT_EQ(LoadError(R"({"run":{"horizon":1}})"),
            "config field run.horizon: unknown key");
  EXPECT_EQ(LoadError(R"({"fault":{"mttf_ms":1}})"),
            "config field fault.mttf_ms: unknown key");
  EXPECT_EQ(LoadError(R"({"low_kk":2})"), "config field low_kk: unknown key");
}

// The removed in-run parallel engine's key gets no alias.
TEST(ConfigJsonTest, RejectsRemovedEngineKey) {
  EXPECT_EQ(LoadError(R"({"run":{"shards":4}})"),
            "config field run.shards: unknown key");
}

TEST(ConfigJsonTest, RejectsSubTickPeriods) {
  EXPECT_EQ(LoadError(R"({"run":{"retry_fallback_ms":0.0001}})"),
            "retry_fallback_ms must be 0 or at least the 0.001 ms clock tick");
  EXPECT_EQ(LoadError(R"({"fault":{"dpn_mttf_ms":0.0001}})"),
            "dpn_mttf_ms must be 0 or at least the 0.001 ms clock tick");
}

TEST(ConfigJsonTest, RejectsWrongTypes) {
  EXPECT_EQ(LoadError(R"({"costs":{"obj_time_ms":"1000"}})"),
            "config field costs.obj_time_ms: expected a number");
  EXPECT_EQ(LoadError(R"({"run":{"trace_enabled":1}})"),
            "config field run.trace_enabled: expected a boolean");
  EXPECT_EQ(LoadError(R"({"machine":{"num_nodes":"8"}})"),
            "config field machine.num_nodes: expected an integer in "
            "[-2147483648, 2147483647]");
}

// Integer fields reject values their type cannot hold instead of casting
// them (undefined behaviour: seed 1e20 used to load as 0).
TEST(ConfigJsonTest, RejectsOutOfRangeIntegers) {
  const std::string uint64_range =
      "expected an integer in [0, 18446744073709551615]";
  const std::string int_range =
      "expected an integer in [-2147483648, 2147483647]";
  EXPECT_EQ(LoadError(R"({"run":{"seed":1e20}})"),
            "config field run.seed: " + uint64_range);
  EXPECT_EQ(LoadError(R"({"workload":{"max_arrivals":1e20}})"),
            "config field workload.max_arrivals: " + uint64_range);
  EXPECT_EQ(LoadError(R"({"run":{"trace_capacity":-1}})"),
            "config field run.trace_capacity: " + uint64_range);
  EXPECT_EQ(LoadError(R"({"machine":{"num_nodes":3e9}})"),
            "config field machine.num_nodes: " + int_range);
  EXPECT_EQ(LoadError(R"({"low_k":-3e9})"), "config field low_k: " + int_range);
  EXPECT_EQ(LoadError(R"({"machine":{"dd":1.5}})"),
            "config field machine.dd: " + int_range);
  // Large in-range values still load.
  EXPECT_EQ(LoadError(R"({"run":{"trace_capacity":1e15}})"), "");
  EXPECT_EQ(LoadError(R"({"run":{"admission_retry_limit":2147483647}})"), "");
}

}  // namespace
}  // namespace wtpgsched
