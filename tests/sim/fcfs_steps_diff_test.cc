// Differential test of FcfsServer::SubmitSteps: a run of N zero-cost jobs
// submitted as one N-step job must behave exactly like N single zero-cost
// jobs — same callback order, same instants, same queue_length() and
// jobs_completed() seen from inside every callback — whether its steps run
// inline or as events.
//
// Each stream is a random program: external events (several sharing an
// instant) submit batches of jobs mixing zero-cost runs with costly jobs,
// and job callbacks submit more batches and schedule more external events,
// some at the current instant. The program draws from one RNG in execution
// order, so the two submission modes see the same program exactly when
// they execute identically; any divergence shows up in the logs.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fcfs_server.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

enum class Mode { kSingleJobs, kMultiStep };

class Program {
 public:
  Program(uint64_t seed, Mode mode) : rng_(seed), mode_(mode) {}

  void Run() {
    const int externals = static_cast<int>(rng_.UniformInt(1, 6));
    for (int i = 0; i < externals; ++i) {
      // Coarse times so several externals share an instant.
      ScheduleExternal(rng_.UniformInt(0, 4) * 10);
    }
    sim_.RunToCompletion();
    log_.push_back(StrCat("end t=", sim_.Now(), " done=",
                          server_.jobs_completed(), " busy_time=",
                          server_.busy_time()));
  }

  const std::vector<std::string>& log() const { return log_; }
  uint64_t events() const { return sim_.events_executed(); }

 private:
  void Note(const std::string& what) {
    log_.push_back(StrCat(what, " t=", sim_.Now(), " q=",
                          server_.queue_length(), " done=",
                          server_.jobs_completed(), " busy=",
                          server_.busy() ? 1 : 0));
  }

  void ScheduleExternal(SimTime at) {
    const int label = next_label_++;
    sim_.ScheduleAt(at, [this, label] {
      Note(StrCat("ext", label));
      SubmitBatch();
      // Same-instant follow-ups interleave with in-flight steps.
      if (rng_.NextDouble() < 0.3) ScheduleExternal(sim_.Now());
    });
  }

  // Submits 0-6 jobs; zero-cost runs go in as one multi-step job in
  // kMultiStep mode and as single jobs otherwise.
  void SubmitBatch() {
    if (budget_ <= 0) return;
    const int jobs = static_cast<int>(rng_.UniformInt(0, 6));
    size_t run = 0;
    for (int i = 0; i < jobs; ++i) {
      --budget_;
      const int label = next_label_++;
      if (rng_.NextDouble() < 0.7) {
        if (mode_ == Mode::kSingleJobs) {
          server_.Submit(0, [this, label] { OnJob(label); });
        } else {
          step_labels_.push_back(label);
          ++run;
        }
        continue;
      }
      FlushRun(&run);
      server_.Submit(rng_.UniformInt(1, 5), [this, label] { OnJob(label); });
    }
    FlushRun(&run);
  }

  void FlushRun(size_t* run) {
    if (*run == 0) return;
    server_.SubmitSteps(*run, [this] {
      const int label = step_labels_.front();
      step_labels_.pop_front();
      OnJob(label);
    });
    *run = 0;
  }

  void OnJob(int label) {
    Note(StrCat("job", label));
    const double roll = rng_.NextDouble();
    if (roll < 0.25) {
      SubmitBatch();
    } else if (roll < 0.35) {
      ScheduleExternal(sim_.Now());
    } else if (roll < 0.4) {
      ScheduleExternal(sim_.Now() + rng_.UniformInt(1, 3));
    }
  }

  Rng rng_;
  const Mode mode_;
  Simulator sim_;
  FcfsServer server_{&sim_, "cpu"};
  std::deque<int> step_labels_;
  std::vector<std::string> log_;
  int next_label_ = 0;
  int budget_ = 400;
};

TEST(FcfsStepsDiffTest, MultiStepJobsMatchSingleJobs) {
  uint64_t single_events = 0;
  uint64_t multi_events = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Program single(seed, Mode::kSingleJobs);
    single.Run();
    Program multi(seed, Mode::kMultiStep);
    multi.Run();
    ASSERT_EQ(single.log(), multi.log()) << "seed " << seed;
    single_events += single.events();
    multi_events += multi.events();
  }
  // The inline path must actually have been taken.
  EXPECT_LT(multi_events, single_events);
}

TEST(FcfsStepsDiffTest, StepsCountInQueueAndCompletions) {
  Simulator sim;
  FcfsServer server(&sim, "cpu");
  std::vector<size_t> queue_seen;
  server.Submit(10, nullptr);
  server.SubmitSteps(3, [&] { queue_seen.push_back(server.queue_length()); });
  server.Submit(10, nullptr);
  // One job in service; three steps and one job waiting.
  EXPECT_EQ(server.queue_length(), 4u);
  sim.RunToCompletion();
  EXPECT_EQ(queue_seen, (std::vector<size_t>{2, 1, 0}));
  EXPECT_EQ(server.jobs_completed(), 5u);
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_EQ(server.busy_time(), 20);
}

}  // namespace
}  // namespace wtpgsched
