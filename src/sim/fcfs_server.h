#ifndef WTPG_SCHED_SIM_FCFS_SERVER_H_
#define WTPG_SCHED_SIM_FCFS_SERVER_H_

#include <deque>
#include <string>

#include "sim/simulator.h"
#include "sim/time.h"
#include "util/inplace_function.h"

namespace wtpgsched {

// Single-server FIFO queue: jobs are served one at a time, to completion, in
// arrival order. Models the control node's CPU, where every scheduler
// decision, message and commit action is a small CPU burst.
//
// A multi-step job (SubmitSteps) is N zero-cost jobs sharing one callback,
// served back to back. Its steps behave exactly like N single jobs: each
// step enters service when the previous one completes, before the previous
// step's callback runs. When no other event is due at Now(), the
// single-job path's next event would be that step's own completion, so the
// server runs it inline instead of through the event queue. Otherwise it
// schedules the completion at Now(), as a single job would. Only
// events_executed() and pending_events() can tell the two paths apart.
class FcfsServer {
 public:
  using Callback = InplaceFunction<void(), EventQueue::kInlineCallbackBytes>;

  FcfsServer(Simulator* sim, std::string name);
  FcfsServer(const FcfsServer&) = delete;
  FcfsServer& operator=(const FcfsServer&) = delete;

  // Enqueues a job needing `service_time` of CPU; `on_complete` fires when
  // the job finishes. Zero service time is allowed (still FIFO-ordered).
  void Submit(SimTime service_time, Callback on_complete);

  // Enqueues one job of `steps` (> 0) zero-cost steps; `on_step` fires once
  // per step, in order. Same schedule as `steps` back-to-back Submit(0, ...)
  // calls with the same callback (see the class comment).
  void SubmitSteps(size_t steps, Callback on_step);

  bool busy() const { return busy_; }
  // Steps waiting behind the one in service (a single job is one step).
  size_t queue_length() const { return queued_steps_; }

  // Total time the server has spent serving jobs.
  SimTime busy_time() const { return busy_time_; }
  // Steps completed (a single job is one step).
  uint64_t jobs_completed() const { return jobs_completed_; }

  // busy_time / elapsed, where elapsed is the simulator clock (assumes the
  // server existed from t=0, true for all uses in this project).
  double Utilization() const;

 private:
  struct Job {
    SimTime service_time = 0;  // Per step.
    size_t steps = 0;          // Steps not yet completed.
    Callback on_step;
  };

  void Enqueue(Job job);
  // Takes the next queued job into service (no-op when none is waiting).
  void StartNext();
  // Puts the next step of current_ into service; it completes as an event
  // after its service time.
  void StartStep();
  void OnStepDone();

  Simulator* const sim_;
  const std::string name_;
  std::deque<Job> queue_;
  Job current_;  // The job in service while busy_.
  bool busy_ = false;
  size_t queued_steps_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_completed_ = 0;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_SIM_FCFS_SERVER_H_
