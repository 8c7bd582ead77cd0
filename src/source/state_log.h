// Versioned state history of one base relation.
//
// Instrumentation only: the consistency checker replays these logs to
// decide whether a warehouse run achieved complete / strong consistency or
// mere convergence. Maintenance algorithms never look at them.

#ifndef SWEEPMV_SOURCE_STATE_LOG_H_
#define SWEEPMV_SOURCE_STATE_LOG_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"
#include "sim/time.h"

namespace sweepmv {

struct LoggedUpdate {
  int64_t id = -1;
  Relation delta;
  SimTime applied_at = 0;
};

class StateLog {
 public:
  StateLog() = default;

  void SetInitial(Relation snapshot) { initial_ = std::move(snapshot); }
  const Relation& initial() const { return initial_; }

  void Append(int64_t id, Relation delta, SimTime applied_at);
  const std::vector<LoggedUpdate>& updates() const { return updates_; }

  // State after the first `k` updates (k == 0 is the initial snapshot).
  Relation StateAfter(size_t k) const;

  // Position of the update with the given id in this log, or -1.
  int IndexOf(int64_t id) const;

 private:
  Relation initial_;
  std::vector<LoggedUpdate> updates_;
};

class StateHasher;

// Fingerprint leaf for the state lists (common/state.h): the initial
// snapshot and every logged delta, in log order. Log order is append
// order — identical for any interleaving that executed the same
// source-local transactions.
void HashLeaf(StateHasher& h, const char* tag, const StateLog& log);

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_STATE_LOG_H_
