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
// fallback timer, the telemetry sampler and the fault sources would
// reschedule at the same instant again and again. Zero (off) and one tick
// are fine.
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

// The double fields that are not durations must be finite as well: NaN
// passes every ordered comparison, and infinity overflows the arithmetic
// they feed (arrival gaps, Zipf sampling, scan service times).
TEST(ConfigTest, RejectsNonFiniteValues) {
  struct Field {
    const char* name;
    void (*set)(SimConfig*, double);
  };
  const Field fields[] = {
      {"arrival_rate_tps",
       [](SimConfig* c, double v) { c->workload.arrival_rate_tps = v; }},
      {"error_sigma",
       [](SimConfig* c, double v) { c->workload.error_sigma = v; }},
      {"zipf_theta",
       [](SimConfig* c, double v) { c->workload.zipf_theta = v; }},
      {"quantum_objects",
       [](SimConfig* c, double v) { c->machine.quantum_objects = v; }},
      {"low_lb_weight", [](SimConfig* c, double v) { c->low_lb_weight = v; }},
      {"straggler_factor",
       [](SimConfig* c, double v) { c->fault.straggler_factor = v; }},
      {"abort_rate_per_s",
       [](SimConfig* c, double v) { c->fault.abort_rate_per_s = v; }},
      {"backoff_jitter",
       [](SimConfig* c, double v) { c->fault.backoff_jitter = v; }}};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Field& field : fields) {
    for (double v : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      SimConfig c;
      field.set(&c, v);
      ExpectRejectedNaming(c, field.name, v);
    }
  }
}

TEST(FaultConfigTest, DisabledByDefault) {
  SimConfig c;
  EXPECT_FALSE(c.fault.enabled());
  EXPECT_TRUE(c.Validate().ok());
}

TEST(FaultConfigTest, ValidateRejectsBadValues) {
  SimConfig c;
  c.fault.dpn_mttf_ms = 1000;
  c.fault.dpn_mttr_ms = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = SimConfig{};
  c.fault.straggler_mtbf_ms = 1000;
  c.fault.straggler_factor = 0.5;
  EXPECT_FALSE(c.Validate().ok());

  c = SimConfig{};
  c.fault.backoff_jitter = 1.0;
  EXPECT_FALSE(c.Validate().ok());

  c = SimConfig{};
  c.fault.backoff_base_ms = 2000;
  c.fault.backoff_max_ms = 1000;
  EXPECT_FALSE(c.Validate().ok());

  c = SimConfig{};
  c.fault.dpn_mttf_ms = 60'000;
  c.fault.dpn_mttr_ms = 20'000;
  c.fault.straggler_mtbf_ms = 120'000;
  c.fault.straggler_duration_ms = 30'000;
  c.fault.straggler_factor = 4.0;
  c.fault.abort_rate_per_s = 0.05;
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

// Doubles that six significant digits cannot hold read back exactly. The
// fields are compared, not the JSON texts: a lossy writer gives the same
// text for the config and for its reloaded copy.
TEST(ConfigJsonTest, DoublesReadBackExactly) {
  SimConfig c;
  c.machine.quantum_objects = 1.0 / 3.0;
  c.costs.obj_time_ms = 1234.5678;
  c.costs.msg_time_ms = 0.1 + 0.2;
  c.workload.arrival_rate_tps = 0.1 + 0.2;
  c.workload.error_sigma = 0.123456789;
  c.workload.zipf_theta = 2.0 / 3.0;
  c.run.horizon_ms = 1'234'567.0;
  c.run.warmup_ms = 98'765.4321;
  c.run.restart_delay_ms = 5000.000001;
  c.fault.dpn_mttf_ms = 1'234'567.0;
  c.fault.dpn_mttr_ms = 15'000.5;
  c.fault.straggler_factor = 1.0 + 1e-12;
  c.fault.abort_rate_per_s = 1e-7 / 3.0;
  c.fault.backoff_jitter = 0.1 + 0.2;
  c.low_lb_weight = 1e300 / 7.0;
  ASSERT_TRUE(c.Validate().ok());
  StatusOr<SimConfig> parsed = SimConfig::FromJson(c.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->machine.quantum_objects, c.machine.quantum_objects);
  EXPECT_EQ(parsed->costs.obj_time_ms, c.costs.obj_time_ms);
  EXPECT_EQ(parsed->costs.msg_time_ms, c.costs.msg_time_ms);
  EXPECT_EQ(parsed->workload.arrival_rate_tps, c.workload.arrival_rate_tps);
  EXPECT_EQ(parsed->workload.error_sigma, c.workload.error_sigma);
  EXPECT_EQ(parsed->workload.zipf_theta, c.workload.zipf_theta);
  EXPECT_EQ(parsed->run.horizon_ms, c.run.horizon_ms);
  EXPECT_EQ(parsed->run.warmup_ms, c.run.warmup_ms);
  EXPECT_EQ(parsed->run.restart_delay_ms, c.run.restart_delay_ms);
  EXPECT_EQ(parsed->fault.dpn_mttf_ms, c.fault.dpn_mttf_ms);
  EXPECT_EQ(parsed->fault.dpn_mttr_ms, c.fault.dpn_mttr_ms);
  EXPECT_EQ(parsed->fault.straggler_factor, c.fault.straggler_factor);
  EXPECT_EQ(parsed->fault.abort_rate_per_s, c.fault.abort_rate_per_s);
  EXPECT_EQ(parsed->fault.backoff_jitter, c.fault.backoff_jitter);
  EXPECT_EQ(parsed->low_lb_weight, c.low_lb_weight);
}

// The default config's JSON, which --config files and the goldens' notes
// spell, is unchanged by the exact double writer.
TEST(ConfigJsonTest, DefaultConfigJsonIsStable) {
  EXPECT_EQ(
      SimConfig().ToJson(),
      "{\"machine\":{\"num_nodes\":8,\"num_files\":16,\"dd\":1,\"mpl\":0,"
      "\"quantum_objects\":0,\"batch_mpl\":0},\"costs\":{\"obj_time_ms\":1000,"
      "\"msg_time_ms\":2,\"sot_time_ms\":2,\"cot_time_ms\":7,\"dd_time_ms\":1,"
      "\"kwtpg_time_ms\":10,\"chain_time_ms\":30,\"top_time_ms\":5},"
      "\"workload\":{\"arrival_rate_tps\":1,\"error_sigma\":0,"
      "\"max_arrivals\":0,\"zipf_theta\":0},\"run\":{\"horizon_ms\":2e+06,"
      "\"warmup_ms\":0,\"retry_fallback_ms\":1000,\"admission_retry_limit\":16,"
      "\"restart_delay_ms\":5000,\"telemetry_sample_ms\":0,"
      "\"telemetry_capacity\":65536,\"trace_enabled\":false,"
      "\"trace_capacity\":1048576,\"tail_metrics\":false,"
      "\"tail_sketch\":false,\"seed\":1},\"fault\":{\"dpn_mttf_ms\":0,"
      "\"dpn_mttr_ms\":60000,\"straggler_mtbf_ms\":0,"
      "\"straggler_duration_ms\":30000,\"straggler_factor\":4,"
      "\"abort_rate_per_s\":0,\"backoff_base_ms\":500,\"backoff_max_ms\":60000,"
      "\"backoff_jitter\":0.2},\"scheduler\":\"low\",\"low_k\":2,"
      "\"low_charge_per_eval\":true,\"low_lb_weight\":1,"
      "\"opt_validate_writes\":true}");
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

// 0 means "no limit"; a negative limit used to load and mean the same.
TEST(ConfigJsonTest, RejectsNegativeAdmissionRetryLimit) {
  EXPECT_EQ(LoadError(R"({"run":{"admission_retry_limit":-3}})"),
            "admission_retry_limit must be >= 0");
  EXPECT_EQ(LoadError(R"({"run":{"admission_retry_limit":0}})"), "");
}

}  // namespace
}  // namespace wtpgsched
