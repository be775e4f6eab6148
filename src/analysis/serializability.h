#ifndef WTPG_SCHED_ANALYSIS_SERIALIZABILITY_H_
#define WTPG_SCHED_ANALYSIS_SERIALIZABILITY_H_

#include <string>
#include <vector>

#include "analysis/schedule_log.h"
#include "model/types.h"

namespace wtpgsched {

// Conflict-serializability verdict for the committed projection of a
// schedule log.
struct SerializabilityResult {
  bool serializable = false;
  // One witness cycle (transaction ids) when not serializable: the first
  // found by a depth-first search from the lowest id.
  std::vector<TxnId> cycle;
  std::string ToString() const;
};

// Tests the conflict graph over committed transactions for acyclicity. The
// full graph has an edge a -> b for each pair of conflicting accesses (same
// file, at least one write) where a's access has the earlier effective
// time; the check keeps only each access's adjacent conflicts on its file,
// which joins every such pair by a path, so it finds a cycle exactly when
// the full graph has one, in time and memory linear in the log. Accesses
// of uncommitted/aborted transactions are ignored (aborted OPT
// incarnations never installed their writes).
SerializabilityResult CheckConflictSerializability(const ScheduleLog& log);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_ANALYSIS_SERIALIZABILITY_H_
