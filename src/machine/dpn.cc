#include "machine/dpn.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

// A scan time beyond kMaxDurationMs does not fit the clock: it saturates
// there, past every horizon, so the scan neither overflows nor finishes
// within the run. Times that fit convert unchanged.
SimTime ScanTime(double ms) {
  return MsToTime(std::min(ms, kMaxDurationMs));
}

}  // namespace

Dpn::Dpn(Simulator* sim, NodeId id, double obj_time_ms)
    : id_(id),
      obj_time_ms_(obj_time_ms),
      server_(sim, StrCat("DPN", id)) {
  WTPG_CHECK_GT(obj_time_ms_, 0.0);
}

RoundRobinServer::JobId Dpn::SubmitCohort(double objects,
                                          double quantum_objects,
                                          RoundRobinServer::Callback done) {
  WTPG_CHECK_GE(objects, 0.0);
  WTPG_CHECK_GT(quantum_objects, 0.0);
  WTPG_CHECK(up_) << "cohort submitted to crashed DPN" << id_;
  // A straggling node scans slower: both the slice length and the total
  // stretch, so the cohort still gets one object-equivalent per turn.
  const SimTime service = ScanTime(objects * obj_time_ms_ * slowdown_);
  const SimTime quantum = std::max<SimTime>(
      ScanTime(quantum_objects * obj_time_ms_ * slowdown_), 1);
  submitted_objects_ += objects;
  const RoundRobinServer::JobId id = server_.next_job_id();
  const RoundRobinServer::JobId assigned =
      server_.Submit(service, quantum, [this, id] { OnCohortDone(id); });
  WTPG_CHECK_EQ(assigned, id);
  resident_.emplace(id, Cohort{objects, std::move(done)});
  return id;
}

void Dpn::OnCohortDone(RoundRobinServer::JobId job) {
  auto it = resident_.find(job);
  WTPG_CHECK(it != resident_.end());
  completed_objects_ += it->second.objects;
  RoundRobinServer::Callback cb = std::move(it->second.done);
  resident_.erase(it);
  if (cb) cb();
}

void Dpn::CancelCohort(RoundRobinServer::JobId job) {
  auto it = resident_.find(job);
  if (it == resident_.end()) return;  // Already completed.
  server_.Cancel(job);
  // The whole cohort leaves the backlog: its completion callback will never
  // run the += above, so settle the account here.
  completed_objects_ += it->second.objects;
  resident_.erase(it);
}

void Dpn::Crash() {
  up_ = false;
  slowdown_ = 1.0;  // A repair brings the node back at full speed.
  server_.CancelAll();
  for (const auto& [job, cohort] : resident_) {
    (void)job;
    completed_objects_ += cohort.objects;
  }
  resident_.clear();
}

void Dpn::Repair() {
  up_ = true;
}

double Dpn::BacklogObjects() const {
  return submitted_objects_ - completed_objects_;
}

}  // namespace wtpgsched
