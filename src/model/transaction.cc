#include "model/transaction.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace wtpgsched {
namespace {

// Orders a declared file before `file` (declarations are sorted by file).
constexpr auto kBeforeFile = [](const auto& declared, FileId file) {
  return declared.file < file;
};

}  // namespace

Transaction::Transaction(TxnId id, std::vector<StepSpec> steps)
    : id_(id), steps_(std::move(steps)) {
  WTPG_CHECK(!steps_.empty()) << "transaction with no steps";
  for (int i = 0; i < num_steps(); ++i) {
    const StepSpec& s = steps_[static_cast<size_t>(i)];
    WTPG_CHECK_GE(s.actual_cost, 0.0);
    WTPG_CHECK_GE(s.declared_cost, 0.0);
    // The strongest lock mode this transaction ever needs on the file. The
    // request mode of the first step must already cover every later access;
    // workload patterns guarantee this (it models predeclared locking).
    const LockMode needed = Stronger(s.access, s.request_mode);
    const auto it = std::lower_bound(declared_.begin(), declared_.end(),
                                     s.file, kBeforeFile);
    if (it != declared_.end() && it->file == s.file) {
      it->mode = Stronger(it->mode, needed);
    } else {
      declared_.insert(it, DeclaredFile{s.file, needed, i});
    }
  }
  for (const DeclaredFile& d : declared_) {
    const StepSpec& first = steps_[static_cast<size_t>(d.first_step)];
    WTPG_CHECK(Stronger(first.request_mode, d.mode) == first.request_mode)
        << "step requesting " << LockModeName(first.request_mode) << " on file "
        << d.file << " does not cover later " << LockModeName(d.mode)
        << " access";
  }
}

const Transaction::DeclaredFile* Transaction::Find(FileId file) const {
  const auto it =
      std::lower_bound(declared_.begin(), declared_.end(), file, kBeforeFile);
  return it != declared_.end() && it->file == file ? &*it : nullptr;
}

LockMode Transaction::LockModeOf(FileId file) const {
  const DeclaredFile* d = Find(file);
  WTPG_CHECK(d != nullptr) << "T" << id_ << " does not declare file " << file;
  return d->mode;
}

int Transaction::FirstStepFor(FileId file) const {
  const DeclaredFile* d = Find(file);
  return d == nullptr ? -1 : d->first_step;
}

bool Transaction::NeedsLockAt(int i) const {
  WTPG_CHECK_GE(i, 0);
  WTPG_CHECK_LT(i, num_steps());
  return FirstStepFor(steps_[static_cast<size_t>(i)].file) == i;
}

LockMode Transaction::RequestModeAt(int i) const {
  WTPG_CHECK(NeedsLockAt(i));
  return LockModeOf(steps_[static_cast<size_t>(i)].file);
}

bool Transaction::ConflictsWith(const Transaction& other) const {
  return FirstConflictingStep(other) != -1;
}

int Transaction::FirstConflictingStep(const Transaction& other) const {
  // Both declarations are sorted by file: one merge pass finds the common
  // files.
  int best = -1;
  auto theirs = other.declared_.begin();
  for (const DeclaredFile& mine : declared_) {
    while (theirs != other.declared_.end() && theirs->file < mine.file) {
      ++theirs;
    }
    if (theirs == other.declared_.end()) break;
    if (theirs->file != mine.file || !Conflicts(mine.mode, theirs->mode)) {
      continue;
    }
    if (best == -1 || mine.first_step < best) best = mine.first_step;
  }
  return best;
}

double Transaction::DeclaredCostFrom(int from_step) const {
  double total = 0.0;
  for (int i = std::max(from_step, 0); i < num_steps(); ++i) {
    total += steps_[static_cast<size_t>(i)].declared_cost;
  }
  return total;
}

void Transaction::AdvanceStep() {
  WTPG_CHECK_LT(current_step_, num_steps());
  ++current_step_;
}

void Transaction::ResetForRestart() {
  current_step_ = 0;
  state_ = State::kCreated;
  ++restarts;
}

std::string Transaction::DebugString() const {
  std::vector<std::string> parts;
  for (const StepSpec& s : steps_) {
    parts.push_back(Format("%s(%d:%.3g)",
                           s.access == LockMode::kShared ? "r" : "w", s.file,
                           s.actual_cost));
  }
  return StrCat("T", id_, "{", Join(parts, " -> "), "}");
}

}  // namespace wtpgsched
