// Differential test of FcfsServer::SubmitSteps: a run of N zero-cost jobs
// submitted as one N-step job must behave exactly like N single zero-cost
// jobs — same callback order, same instants, and the same queue_length(),
// jobs_completed() and busy() seen from every costly job and external event
// and from the last step of every on_steps(n) call — whether its steps
// complete one per event or several per callback.
//
// Each stream is a random program: external events (several sharing an
// instant) submit batches of jobs mixing zero-cost runs with costly jobs,
// and job callbacks submit more batches and schedule more external events.
// Costly jobs, external events and the last step of each run schedule some
// at the current instant; the other steps do not, as a callback covering
// several steps must not. The program draws from one RNG in execution
// order, so the two submission modes see the same program exactly when
// they execute identically; any divergence shows up in the logs.
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fcfs_server.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

enum class Mode { kSingleJobs, kMultiStep };

// What a callback of the server saw: queue_length(), jobs_completed() and
// busy().
using ServerState = std::tuple<size_t, uint64_t, bool>;

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
  // The server state each observed zero-cost step saw, by label: every step
  // of a single-jobs run, the last step of each on_steps call otherwise.
  const std::map<int, ServerState>& step_states() const {
    return step_states_;
  }

 private:
  enum class Kind { kCostly, kStep, kLastStep };

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
    std::vector<int> run;
    for (int i = 0; i < jobs; ++i) {
      --budget_;
      const int label = next_label_++;
      if (rng_.NextDouble() < 0.7) {
        run.push_back(label);
        continue;
      }
      FlushRun(&run);
      server_.Submit(rng_.UniformInt(1, 5), [this, label] {
        OnJob(label, Kind::kCostly, /*observe=*/true);
      });
    }
    FlushRun(&run);
  }

  void FlushRun(std::vector<int>* run) {
    if (run->empty()) return;
    if (mode_ == Mode::kSingleJobs) {
      for (size_t i = 0; i < run->size(); ++i) {
        const int label = (*run)[i];
        const Kind kind = i + 1 == run->size() ? Kind::kLastStep : Kind::kStep;
        server_.Submit(0, [this, label, kind] {
          OnJob(label, kind, /*observe=*/true);
        });
      }
    } else {
      for (size_t i = 0; i < run->size(); ++i) {
        step_labels_.emplace_back(
            (*run)[i], i + 1 == run->size() ? Kind::kLastStep : Kind::kStep);
      }
      server_.SubmitSteps(run->size(), [this](size_t steps) {
        for (size_t i = 0; i < steps; ++i) {
          const auto [label, kind] = step_labels_.front();
          step_labels_.pop_front();
          OnJob(label, kind, /*observe=*/i + 1 == steps);
        }
      });
    }
    run->clear();
  }

  // A zero-cost step's note leaves out the server state, which a callback
  // covering several steps sees only once; `observe` records it in
  // step_states_ when this step's callback sees it.
  void OnJob(int label, Kind kind, bool observe) {
    if (kind == Kind::kCostly) {
      Note(StrCat("job", label));
    } else {
      log_.push_back(StrCat("job", label, " t=", sim_.Now()));
      if (observe) {
        step_states_[label] = {server_.queue_length(),
                               server_.jobs_completed(), server_.busy()};
      }
    }
    const double roll = rng_.NextDouble();
    if (roll < 0.25) {
      SubmitBatch();
    } else if (roll < 0.35) {
      if (kind != Kind::kStep) ScheduleExternal(sim_.Now());
    } else if (roll < 0.4) {
      ScheduleExternal(sim_.Now() + rng_.UniformInt(1, 3));
    }
  }

  Rng rng_;
  const Mode mode_;
  Simulator sim_;
  FcfsServer server_{&sim_, "cpu"};
  std::deque<std::pair<int, Kind>> step_labels_;  // Queued steps'.
  std::vector<std::string> log_;
  std::map<int, ServerState> step_states_;
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
    for (const auto& [label, state] : multi.step_states()) {
      const auto it = single.step_states().find(label);
      ASSERT_NE(it, single.step_states().end()) << "seed " << seed;
      EXPECT_EQ(it->second, state) << "seed " << seed << " job" << label;
    }
    single_events += single.events();
    multi_events += multi.events();
  }
  // The inline path must actually have been taken.
  EXPECT_LT(multi_events, single_events);
}

// (steps, queue_length, jobs_completed) as one on_steps call saw them.
using StepsCall = std::tuple<size_t, size_t, uint64_t>;

TEST(FcfsStepsDiffTest, StepsCountInQueueAndCompletions) {
  Simulator sim;
  FcfsServer server(&sim, "cpu");
  std::vector<StepsCall> calls;
  server.Submit(10, nullptr);
  server.SubmitSteps(3, [&](size_t steps) {
    calls.emplace_back(steps, server.queue_length(), server.jobs_completed());
  });
  server.Submit(10, nullptr);
  // One job in service; three steps and one job waiting.
  EXPECT_EQ(server.queue_length(), 4u);
  sim.RunToCompletion();
  // Nothing else is due at t=10: the first two steps complete in one call
  // while the third is in service, and the third completes after the last
  // job has entered service.
  EXPECT_EQ(calls, (std::vector<StepsCall>{{2, 1, 3}, {1, 0, 4}}));
  EXPECT_EQ(server.jobs_completed(), 5u);
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_EQ(server.busy_time(), 20);
}

TEST(FcfsStepsDiffTest, OneStepPerEventWhileAnotherEventIsDue) {
  Simulator sim;
  FcfsServer server(&sim, "cpu");
  std::vector<StepsCall> calls;
  // An event due at every step's instant, as long as the job runs.
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 10) sim.ScheduleAfter(0, [&] { tick(); });
  };
  sim.ScheduleAt(0, [&] { tick(); });
  server.SubmitSteps(4, [&](size_t steps) {
    calls.emplace_back(steps, server.queue_length(), server.jobs_completed());
  });
  sim.RunToCompletion();
  EXPECT_EQ(calls, (std::vector<StepsCall>{
                       {1, 2, 1}, {1, 1, 2}, {1, 0, 3}, {1, 0, 4}}));
  EXPECT_EQ(server.jobs_completed(), 4u);
}

}  // namespace
}  // namespace wtpgsched
