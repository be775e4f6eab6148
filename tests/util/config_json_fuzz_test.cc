// Seeded mutation of config JSON: SimConfig::FromJson reads files from the
// command line (--config), so every mutated document must load or fail
// with a clean InvalidArgument — never crash, never trip a CHECK. Seeds are
// the default config and one with faults, telemetry and tracing on;
// mutations replace, delete and insert characters, truncate, and splice in
// a piece of either seed.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/config.h"
#include "util/random.h"

namespace wtpgsched {
namespace {

std::vector<std::string> SeedDocuments() {
  SimConfig busy;
  busy.scheduler = SchedulerKind::kC2pl;
  busy.run.telemetry_sample_ms = 5'000;
  busy.run.trace_enabled = true;
  busy.run.tail_metrics = true;
  busy.run.tail_sketch = true;
  busy.fault.dpn_mttf_ms = 120'000;
  busy.fault.dpn_mttr_ms = 15'000;
  busy.fault.straggler_mtbf_ms = 200'000;
  busy.fault.abort_rate_per_s = 0.02;
  return {SimConfig{}.ToJson(), busy.ToJson()};
}

// Characters that matter to the JSON grammar and to the config's values.
const char kAlphabet[] = "{}[]:,\"\\-+.eE0123456789 \ntrufalsn_xyz";

char RandomChar(Rng* rng) {
  return kAlphabet[rng->UniformInt(0, std::size(kAlphabet) - 2)];
}

size_t RandomPos(Rng* rng, const std::string& text) {
  return static_cast<size_t>(rng->UniformInt(0, text.size()));
}

TEST(ConfigJsonFuzzTest, MutatedConfigsLoadOrFailCleanly) {
  const std::vector<std::string> seeds = SeedDocuments();
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(SimConfig::FromJson(seed).ok()) << seed;
  }
  Rng rng(19910408);
  int loaded = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string text = seeds[rng.UniformInt(0, seeds.size() - 1)];
    const int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = RandomPos(&rng, text) % text.size();
      switch (rng.UniformInt(0, 4)) {
        case 0:  // Replace.
          text[pos] = RandomChar(&rng);
          break;
        case 1:  // Delete a short run.
          text.erase(pos, static_cast<size_t>(rng.UniformInt(1, 8)));
          break;
        case 2:  // Insert.
          text.insert(pos, 1, RandomChar(&rng));
          break;
        case 3:  // Truncate.
          text.resize(pos);
          break;
        default: {  // Splice a piece of a seed over a piece of the text.
          const std::string& donor = seeds[rng.UniformInt(0, seeds.size() - 1)];
          const size_t from = RandomPos(&rng, donor);
          const size_t len = static_cast<size_t>(rng.UniformInt(1, 40));
          text.replace(pos, static_cast<size_t>(rng.UniformInt(0, 40)),
                       donor.substr(from, len));
          break;
        }
      }
    }
    StatusOr<SimConfig> result = SimConfig::FromJson(text);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << text;
      continue;
    }
    ++loaded;
    // What loads is valid and survives its own round trip.
    EXPECT_TRUE(result->Validate().ok()) << text;
    StatusOr<SimConfig> again = SimConfig::FromJson(result->ToJson());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->ToJson(), result->ToJson());
  }
  // Unmutated and harmlessly mutated seeds load, so some trials must.
  EXPECT_GT(loaded, 600);
}

}  // namespace
}  // namespace wtpgsched
