#include "source/state_log.h"

#include "common/check.h"
#include "common/fingerprint.h"

namespace sweepmv {

void StateLog::Append(int64_t id, Relation delta, SimTime applied_at) {
  updates_.push_back(LoggedUpdate{id, std::move(delta), applied_at});
}

Relation StateLog::StateAfter(size_t k) const {
  SWEEP_CHECK(k <= updates_.size());
  Relation state = initial_;
  for (size_t i = 0; i < k; ++i) {
    state.Merge(updates_[i].delta);
  }
  return state;
}

int StateLog::IndexOf(int64_t id) const {
  for (size_t i = 0; i < updates_.size(); ++i) {
    if (updates_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

void HashLeaf(StateHasher& h, const char* tag, const StateLog& log) {
  h.U64(tag, log.updates().size());
  AbsorbRelation(h, "log.initial", log.initial());
  for (const LoggedUpdate& u : log.updates()) {
    h.I64("log.id", u.id);
    h.I64("log.at", u.applied_at);
    AbsorbRelation(h, "log.delta", u.delta);
  }
}

}  // namespace sweepmv
