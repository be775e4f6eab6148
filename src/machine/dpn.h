#ifndef WTPG_SCHED_MACHINE_DPN_H_
#define WTPG_SCHED_MACHINE_DPN_H_

#include <map>
#include <string>

#include "model/types.h"
#include "sim/round_robin_server.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace wtpgsched {

// A data-processing node (paper Section 4.1, item 3): scans objects at
// ObjTime per object, serving resident cohorts round-robin on a
// RoundRobinServer; when a file is declustered DD ways, each round-robin
// turn scans 1/DD object (Section 4.1, item 4).
//
// Fault surface (see src/fault/): Crash() fails every resident cohort and
// marks the node down until Repair(); set_slowdown() stretches the service
// time of subsequently submitted cohorts (straggler windows). The machine —
// not the node — decides what happens to the transactions whose cohorts
// die.
class Dpn {
 public:
  Dpn(Simulator* sim, NodeId id, double obj_time_ms);

  NodeId id() const { return id_; }

  // Runs a cohort scanning `objects` (possibly fractional) with a
  // round-robin quantum of `quantum_objects`; `done` fires at completion.
  // Returns the job id, the handle for CancelCohort().
  RoundRobinServer::JobId SubmitCohort(double objects, double quantum_objects,
                                       RoundRobinServer::Callback done);

  // Abandons a resident cohort: its completion callback never fires and its
  // remaining work leaves the backlog (partial slices already served are
  // lost). No-op when the cohort already completed.
  void CancelCohort(RoundRobinServer::JobId job);

  // Fails the node: every resident cohort is abandoned and the node refuses
  // new work (the machine checks up() before dispatching) until Repair().
  void Crash();

  // Brings the node back at full speed with its placement intact.
  void Repair();

  bool up() const { return up_; }

  // Service-time multiplier (>= 1) applied to cohorts submitted from now
  // on; already-resident cohorts keep their original slice times.
  void set_slowdown(double factor) { slowdown_ = factor; }
  double slowdown() const { return slowdown_; }

  // Objects of scan work currently queued or in progress.
  double BacklogObjects() const;

  size_t active_cohorts() const { return server_.active_jobs(); }
  double Utilization() const { return server_.Utilization(); }
  SimTime busy_time() const { return server_.busy_time(); }
  uint64_t cohorts_completed() const { return server_.jobs_completed(); }

 private:
  void OnCohortDone(RoundRobinServer::JobId job);

  NodeId id_;
  double obj_time_ms_;
  RoundRobinServer server_;
  bool up_ = true;
  double slowdown_ = 1.0;
  // Work accounting for BacklogObjects(): submitted minus completed.
  double submitted_objects_ = 0.0;
  double completed_objects_ = 0.0;
  // Per-resident-cohort state: objects for the backlog refund on cancel,
  // plus the caller's completion callback. Parking the callback here keeps
  // the lambda handed to the server inside the inline capture budget (a
  // callback captured *inside* another same-capacity callback cannot fit).
  // Ordered so the crash refund sums in a deterministic order.
  struct Cohort {
    double objects;
    RoundRobinServer::Callback done;
  };
  std::map<RoundRobinServer::JobId, Cohort> resident_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_MACHINE_DPN_H_
