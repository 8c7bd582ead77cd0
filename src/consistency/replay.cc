#include "consistency/replay.h"

#include "common/check.h"

namespace sweepmv {

Replayer::Replayer(const ViewDef* view,
                   std::vector<const StateLog*> source_logs)
    : view_(view), logs_(std::move(source_logs)) {
  SWEEP_CHECK(view != nullptr);
  SWEEP_CHECK(static_cast<int>(logs_.size()) == view->num_relations());
  states_.reserve(logs_.size());
  versions_.assign(logs_.size(), 0);
  for (size_t r = 0; r < logs_.size(); ++r) {
    SWEEP_CHECK(logs_[r] != nullptr);
    states_.push_back(logs_[r]->initial());
    for (size_t i = 0; i < logs_[r]->updates().size(); ++i) {
      int64_t id = logs_[r]->updates()[i].id;
      auto [it, inserted] =
          index_.emplace(id, std::make_pair(static_cast<int>(r), i));
      SWEEP_CHECK_MSG(inserted, "duplicate update id across source logs");
      (void)it;
    }
  }
}

size_t Replayer::TotalUpdates(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations());
  return logs_[static_cast<size_t>(rel)]->updates().size();
}

std::pair<int, size_t> Replayer::Locate(int64_t update_id) const {
  const std::pair<int, size_t>* at = Find(update_id);
  SWEEP_CHECK_MSG(at != nullptr, "unknown update id");
  return *at;
}

const std::pair<int, size_t>* Replayer::Find(int64_t update_id) const {
  auto it = index_.find(update_id);
  return it == index_.end() ? nullptr : &it->second;
}

const Relation& Replayer::DeltaOf(int64_t update_id) const {
  auto [rel, pos] = Locate(update_id);
  return logs_[static_cast<size_t>(rel)]->updates()[pos].delta;
}

void Replayer::AdvanceTo(const std::vector<size_t>& versions) {
  SWEEP_CHECK(versions.size() == versions_.size());
  for (size_t r = 0; r < versions.size(); ++r) {
    SWEEP_CHECK_MSG(versions[r] >= versions_[r],
                    "version vectors must be non-decreasing");
    SWEEP_CHECK(versions[r] <= logs_[r]->updates().size());
    while (versions_[r] < versions[r]) {
      states_[r].Merge(logs_[r]->updates()[versions_[r]].delta);
      ++versions_[r];
    }
  }
}

Relation Replayer::CurrentView() const {
  std::vector<const Relation*> rels;
  rels.reserve(states_.size());
  for (const Relation& s : states_) rels.push_back(&s);
  return view_->EvaluateFull(rels);
}

}  // namespace sweepmv
