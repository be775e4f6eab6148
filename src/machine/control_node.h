#ifndef WTPG_SCHED_MACHINE_CONTROL_NODE_H_
#define WTPG_SCHED_MACHINE_CONTROL_NODE_H_

#include "machine/config.h"
#include "sim/fcfs_server.h"
#include "sim/simulator.h"

namespace wtpgsched {

// The control node (paper Section 4.1, item 2): a single CPU holding the
// lock table and coordinating two-phase commit. Every scheduler decision,
// message handling and commit action is a CPU burst served FCFS.
class ControlNode {
 public:
  ControlNode(Simulator* sim, const SimConfig& config)
      : cpu_(sim, "CN"),
        sot_time_(MsToTime(config.costs.sot_time_ms)),
        cot_time_(MsToTime(config.costs.cot_time_ms)),
        msg_time_(MsToTime(config.costs.msg_time_ms)) {}

  // Generic CPU burst (scheduler decision of a given cost, etc).
  void SubmitWork(SimTime cost, FcfsServer::Callback done) {
    cpu_.Submit(cost, std::move(done));
  }

  // `steps` zero-cost decisions served back to back as one job;
  // `on_steps(n)` decides the next n (FcfsServer::SubmitSteps).
  void SubmitSteps(size_t steps, FcfsServer::StepsCallback on_steps) {
    cpu_.SubmitSteps(steps, std::move(on_steps));
  }

  // Named bursts for the Table-1 cost categories.
  void SubmitStartup(SimTime extra_cost, FcfsServer::Callback done) {
    cpu_.Submit(sot_time_ + extra_cost, std::move(done));
  }
  void SubmitCommit(FcfsServer::Callback done) {
    cpu_.Submit(cot_time_, std::move(done));
  }
  void SubmitMessage(FcfsServer::Callback done) {
    cpu_.Submit(msg_time_, std::move(done));
  }

  double Utilization() const { return cpu_.Utilization(); }
  SimTime busy_time() const { return cpu_.busy_time(); }
  // Queued decisions, counting each step of a multi-step job.
  size_t queue_length() const { return cpu_.queue_length(); }

 private:
  FcfsServer cpu_;
  SimTime sot_time_;
  SimTime cot_time_;
  SimTime msg_time_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_CONTROL_NODE_H_
