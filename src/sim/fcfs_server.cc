#include "sim/fcfs_server.h"

#include <utility>

#include "util/logging.h"

namespace wtpgsched {

FcfsServer::FcfsServer(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void FcfsServer::Submit(SimTime service_time, Callback on_complete) {
  WTPG_CHECK_GE(service_time, 0);
  Enqueue(Job{service_time, 1, std::move(on_complete)});
}

void FcfsServer::SubmitSteps(size_t steps, Callback on_step) {
  WTPG_CHECK_GT(steps, 0u);
  WTPG_CHECK(on_step);
  Enqueue(Job{0, steps, std::move(on_step)});
}

void FcfsServer::Enqueue(Job job) {
  queued_steps_ += job.steps;
  queue_.push_back(std::move(job));
  if (!busy_) StartNext();
}

void FcfsServer::StartNext() {
  WTPG_CHECK(!busy_);
  if (queue_.empty()) return;
  current_ = std::move(queue_.front());
  queue_.pop_front();
  StartStep();
}

void FcfsServer::StartStep() {
  busy_ = true;
  --queued_steps_;
  busy_time_ += current_.service_time;
  sim_->ScheduleAfter(current_.service_time, [this] { OnStepDone(); });
}

void FcfsServer::OnStepDone() {
  while (true) {
    WTPG_CHECK(busy_);
    busy_ = false;
    ++jobs_completed_;
    if (--current_.steps == 0) {
      Callback cb = std::move(current_.on_step);
      // Start the next job before running the callback so that work
      // submitted from inside the callback queues behind already-waiting
      // jobs.
      StartNext();
      if (cb) cb();
      return;
    }
    // The job's next step enters service before this step's callback runs,
    // as the next single job would.
    if (!sim_->CanContinueInline()) {
      StartStep();
      current_.on_step();
      return;
    }
    busy_ = true;
    --queued_steps_;
    current_.on_step();
    // Nothing can have been due before that step's completion event: run
    // it here.
  }
}

double FcfsServer::Utilization() const {
  const SimTime elapsed = sim_->Now();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

}  // namespace wtpgsched
