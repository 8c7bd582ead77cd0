// Replay machinery shared by the consistency checker.
//
// Rebuilds base-relation states from the sources' update logs so that the
// checker can ask "what should the view have been at this version vector?"
// without trusting anything the warehouse computed.

#ifndef SWEEPMV_CONSISTENCY_REPLAY_H_
#define SWEEPMV_CONSISTENCY_REPLAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "relational/relation.h"
#include "relational/view_def.h"
#include "source/state_log.h"

namespace sweepmv {

class Replayer {
 public:
  // `source_logs[r]` is the log of relation r (initial snapshot + applied
  // deltas in source order).
  Replayer(const ViewDef* view, std::vector<const StateLog*> source_logs);

  int num_relations() const { return static_cast<int>(logs_.size()); }

  // Number of updates relation r executed in total.
  size_t TotalUpdates(int rel) const;

  // Looks up an update id: returns (relation, position in that relation's
  // source order). Aborts if the id is unknown.
  std::pair<int, size_t> Locate(int64_t update_id) const;
  // Like Locate, but nullptr if the id is unknown.
  const std::pair<int, size_t>* Find(int64_t update_id) const;

  const Relation& DeltaOf(int64_t update_id) const;

  // Advances the maintained base states to the given version vector
  // (versions[r] = number of relation-r updates applied). Versions must be
  // non-decreasing across calls.
  void AdvanceTo(const std::vector<size_t>& versions);

  // Evaluates the view at the current version vector.
  Relation CurrentView() const;

  const std::vector<size_t>& versions() const { return versions_; }

 private:
  const ViewDef* view_;
  std::vector<const StateLog*> logs_;
  std::vector<Relation> states_;
  std::vector<size_t> versions_;
  // update id -> (relation, index in source order)
  std::map<int64_t, std::pair<int, size_t>> index_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CONSISTENCY_REPLAY_H_
