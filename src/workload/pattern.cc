#include "workload/pattern.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace wtpgsched {

Pattern::Pattern(std::string name, std::vector<FileVarSpec> vars,
                 std::vector<PatternStepSpec> steps)
    : name_(std::move(name)), vars_(std::move(vars)), steps_(std::move(steps)) {
  WTPG_CHECK(!steps_.empty()) << "pattern with no steps";
  zipf_.reserve(vars_.size());
  for (const FileVarSpec& v : vars_) {
    WTPG_CHECK_LE(v.pool_lo, v.pool_hi);
    WTPG_CHECK_GE(v.zipf_theta, 0.0);
    const int64_t pool = static_cast<int64_t>(v.pool_hi) - v.pool_lo + 1;
    zipf_.emplace_back(pool, v.zipf_theta);
  }
  for (const PatternStepSpec& s : steps_) {
    WTPG_CHECK_GE(s.file_var, 0);
    WTPG_CHECK_LT(s.file_var, static_cast<int>(vars_.size()));
    WTPG_CHECK_GE(s.cost, 0.0);
  }
}

Pattern Pattern::Experiment1(int num_files) {
  WTPG_CHECK_GE(num_files, 2);
  const FileId hi = static_cast<FileId>(num_files - 1);
  std::vector<FileVarSpec> vars = {
      {0, hi, /*distinct_within_pool=*/true},  // F1
      {0, hi, /*distinct_within_pool=*/true},  // F2
  };
  const LockMode kX = LockMode::kExclusive;
  const LockMode kS = LockMode::kShared;
  std::vector<PatternStepSpec> steps = {
      {/*is_write=*/false, kX, /*file_var=*/0, /*cost=*/1.0},  // r(F1:1), X-lock
      {/*is_write=*/false, kX, /*file_var=*/1, /*cost=*/5.0},  // r(F2:5), X-lock
      {/*is_write=*/true, kS, /*file_var=*/0, /*cost=*/0.2},   // w(F1:0.2)
      {/*is_write=*/true, kS, /*file_var=*/1, /*cost=*/1.0},   // w(F2:1)
  };
  // The request_mode of the write steps is irrelevant: the files are already
  // locked X by the first two steps.
  return Pattern("Pattern1", std::move(vars), std::move(steps));
}

Pattern Pattern::Experiment2() {
  std::vector<FileVarSpec> vars = {
      {0, 7, /*distinct_within_pool=*/true},   // B: read-only pool
      {8, 15, /*distinct_within_pool=*/true},  // F1: hot pool
      {8, 15, /*distinct_within_pool=*/true},  // F2: hot pool
  };
  const LockMode kX = LockMode::kExclusive;
  const LockMode kS = LockMode::kShared;
  std::vector<PatternStepSpec> steps = {
      {/*is_write=*/false, kS, /*file_var=*/0, /*cost=*/5.0},  // r(B:5)
      {/*is_write=*/true, kX, /*file_var=*/1, /*cost=*/1.0},   // w(F1:1)
      {/*is_write=*/true, kX, /*file_var=*/2, /*cost=*/1.0},   // w(F2:1)
  };
  return Pattern("Pattern2", std::move(vars), std::move(steps));
}

FileId Pattern::MaxFileId() const {
  FileId max_id = 0;
  for (const FileVarSpec& v : vars_) max_id = std::max(max_id, v.pool_hi);
  return max_id;
}

Pattern Pattern::WithZipf(double theta) const {
  std::vector<FileVarSpec> vars = vars_;
  for (FileVarSpec& v : vars) v.zipf_theta = theta;
  return Pattern(name_, std::move(vars), steps_);
}

double Pattern::TotalCost() const {
  double total = 0.0;
  for (const PatternStepSpec& s : steps_) total += s.cost;
  return total;
}

std::vector<StepSpec> Pattern::Instantiate(Rng* rng, int dd,
                                           const ErrorModel& error) const {
  WTPG_CHECK_GE(dd, 1);
  // Bind file variables.
  std::vector<FileId> bound(vars_.size(), kInvalidFile);
  for (size_t i = 0; i < vars_.size(); ++i) {
    const FileVarSpec& v = vars_[i];
    // Zipf vars draw a skewed rank offset from the pool base; uniform vars
    // keep the exact historical UniformInt path (bit-identical draws for
    // theta == 0 configs).
    const auto draw = [&] {
      return v.zipf_theta > 0.0
                 ? static_cast<FileId>(v.pool_lo + zipf_[i].Sample(rng))
                 : static_cast<FileId>(rng->UniformInt(v.pool_lo, v.pool_hi));
    };
    // Distinct variables of one pool bind different files.
    const auto taken = [&](FileId file) {
      if (!v.distinct_within_pool) return false;
      for (size_t j = 0; j < i; ++j) {
        const FileVarSpec& w = vars_[j];
        if (w.pool_lo == v.pool_lo && w.pool_hi == v.pool_hi &&
            w.distinct_within_pool && bound[j] == file) {
          return true;
        }
      }
      return false;
    };
    FileId file = draw();
    for (int attempts = 1; taken(file); ++attempts) {
      if (attempts < 10000) {
        file = draw();
        continue;
      }
      // A steep skew can keep drawing held files (theta 50 puts nearly all
      // the mass on pool_lo): bind the first free file of the pool instead,
      // drawing nothing more.
      for (file = v.pool_lo; taken(file); ++file) {
        WTPG_CHECK_LT(file, v.pool_hi)
            << "file pool too small for distinctness";
      }
      break;
    }
    bound[i] = file;
  }

  std::vector<StepSpec> result;
  result.reserve(steps_.size());
  for (const PatternStepSpec& s : steps_) {
    StepSpec step;
    step.file = bound[static_cast<size_t>(s.file_var)];
    step.access = s.is_write ? LockMode::kExclusive : LockMode::kShared;
    step.request_mode = Stronger(s.request_mode, step.access);
    step.actual_cost = s.cost;
    double declared = s.cost;
    if (error.sigma > 0.0) {
      const double x = rng->Normal(0.0, error.sigma);
      declared = x <= -1.0 ? 0.0 : s.cost * (1.0 + x);
    }
    step.declared_cost = declared / static_cast<double>(dd);
    result.push_back(step);
  }
  return result;
}

}  // namespace wtpgsched
