#include "sim/fcfs_server.h"

#include <utility>

#include "util/logging.h"

namespace wtpgsched {

FcfsServer::FcfsServer(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void FcfsServer::Submit(SimTime service_time, Callback on_complete) {
  WTPG_CHECK_GE(service_time, 0);
  if (!on_complete) on_complete = [] {};
  Enqueue(Job{service_time, 1, std::move(on_complete)});
}

void FcfsServer::SubmitSteps(size_t steps, StepsCallback on_steps) {
  WTPG_CHECK_GT(steps, 0u);
  WTPG_CHECK(on_steps);
  step_callbacks_.push_back(std::move(on_steps));
  Enqueue(Job{0, steps, nullptr});
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
  if (!current_.on_done) {
    on_steps_ = std::move(step_callbacks_.front());
    step_callbacks_.pop_front();
  }
  StartStep();
}

void FcfsServer::StartStep() {
  busy_ = true;
  --queued_steps_;
  busy_time_ += current_.service_time;
  sim_->ScheduleAfter(current_.service_time, [this] { OnStepDone(); });
}

void FcfsServer::OnStepDone() {
  WTPG_CHECK(busy_);
  busy_ = false;
  ++jobs_completed_;
  if (--current_.steps == 0) {
    FinishJob();
    return;
  }
  if (!sim_->CanContinueInline()) {
    // The next step enters service before this step's callback runs, as
    // the next single job would.
    StartStep();
    on_steps_(1);
    return;
  }
  // Nothing else is due at Now(): this step and every later one but the
  // last complete back to back while the last enters service.
  const size_t steps = current_.steps;
  jobs_completed_ += steps - 1;
  queued_steps_ -= steps;
  busy_ = true;
  on_steps_(steps);
  WTPG_CHECK(steps == 1 || sim_->CanContinueInline())
      << name_ << ": a multi-step callback scheduled an event at Now()";
  // Nothing can have been due before the last step's completion: it
  // completes here.
  busy_ = false;
  ++jobs_completed_;
  current_.steps = 0;
  FinishJob();
}

void FcfsServer::FinishJob() {
  // Start the next job before running the callback so that work submitted
  // from inside the callback queues behind already-waiting jobs.
  if (!current_.on_done) {
    StepsCallback on_steps = std::move(on_steps_);
    StartNext();
    on_steps(1);
    return;
  }
  Callback on_done = std::move(current_.on_done);
  StartNext();
  on_done();
}

double FcfsServer::Utilization() const {
  const SimTime elapsed = sim_->Now();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

}  // namespace wtpgsched
