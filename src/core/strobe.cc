#include "core/strobe.h"

#include <set>

#include "common/check.h"
#include "common/log.h"
#include "relational/operators.h"

namespace sweepmv {

StrobeWarehouse::StrobeWarehouse(int site_id, ViewDef view_def,
                                 Network* network,
                                 std::vector<int> source_sites,
                                 Options options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options) {}

void StrobeWarehouse::InitializeAuxiliary(
    const std::vector<Relation>& initial_bases) {
  SWEEP_CHECK(static_cast<int>(initial_bases.size()) ==
              view_def().num_relations());
  Relation acc = initial_bases[0];
  for (int rel = 1; rel < view_def().num_relations(); ++rel) {
    acc = Join(acc, initial_bases[static_cast<size_t>(rel)],
               view_def().ExtendRightKeys(0, rel));
  }
  internal_view_ = Select(acc, view_def().selection());
  internal_view_.ClampToSet();
}

void StrobeWarehouse::HandleUpdateArrival() {
  ProcessArrivals();
  TryInstall();
}

void StrobeWarehouse::ProcessArrivals() {
  auto& queue = mutable_queue();
  while (!queue.empty()) {
    Update update = std::move(queue.front());
    queue.pop_front();

    // Split the transaction into its delete and insert parts.
    Relation inserts(view_def().rel_schema(update.relation));
    std::vector<Tuple> deletes;
    for (const auto& [t, c] : update.delta.entries()) {
      if (c > 0) {
        inserts.Add(t, c);
      } else {
        deletes.push_back(t);
      }
    }

    // Deletes: handled locally — mark every in-flight query and append a
    // key-delete action.
    for (const Tuple& t : deletes) {
      for (PendingQuery& q : pending_) {
        q.pending_deletes.emplace_back(update.relation, t);
      }
      Action action;
      action.kind = Action::Kind::kDeleteKey;
      action.rel = update.relation;
      action.key = t;
      action.update_id = update.id;
      action_list_.push_back(std::move(action));
    }

    // Inserts: launch a sweep query over the other sources.
    if (!inserts.Empty()) {
      PendingQuery query;
      query.update_id = update.id;
      query.src_rel = update.relation;
      query.pd = PartialDelta::ForRelation(view_def(), update.relation,
                                           std::move(inserts));
      query.left_phase = true;
      query.j = update.relation - 1;
      pending_.push_back(std::move(query));
      AdvanceQuery(pending_.back());
    } else if (deletes.empty()) {
      // Net no-op transaction: nothing to do (sources do not ship these).
      SWEEP_CHECK(false);
    }
  }
}

void StrobeWarehouse::AdvanceQuery(PendingQuery& query) {
  if (query.left_phase && query.j < 0) {
    query.left_phase = false;
    query.j = query.src_rel + 1;
  }
  if (!query.left_phase && query.j >= view_def().num_relations()) {
    // Finished: locate the index and finalize (the reference stays valid —
    // no reallocation happens between the caller and here).
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (&pending_[i] == &query) {
        FinalizeQuery(i);
        return;
      }
    }
    SWEEP_CHECK_MSG(false, "pending query not found");
  }
  query.outstanding_query =
      SendSweepQuery(query.j, /*extend_left=*/query.left_phase, query.pd);
}

void StrobeWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  for (PendingQuery& query : pending_) {
    if (query.outstanding_query == answer.query_id) {
      query.outstanding_query = -1;
      query.pd = std::move(answer.partial);
      query.j += query.left_phase ? -1 : 1;
      AdvanceQuery(query);
      TryInstall();
      return;
    }
  }
  SWEEP_CHECK_MSG(false, "answer does not match any pending Strobe query");
}

void StrobeWarehouse::FinalizeQuery(size_t index) {
  PendingQuery query = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  SWEEP_CHECK(query.pd.SpansAll(view_def()));

  Relation result = Select(query.pd.rel, view_def().selection());
  result.ClampToSet();
  // Remove tuples invalidated by deletes that raced this query.
  for (const auto& [rel, key] : query.pending_deletes) {
    result.EraseMatching(view_def().RelPositionsInJoined(rel), key);
  }

  Action action;
  action.kind = Action::Kind::kInsert;
  action.tuples = std::move(result);
  action.update_id = query.update_id;
  action_list_.push_back(std::move(action));
}

void StrobeWarehouse::TryInstall() {
  // Quiescence test: no unprocessed updates and no unanswered queries.
  if (!pending_.empty() || !mutable_queue().empty()) return;
  if (action_list_.empty()) return;

  std::vector<int64_t> ids;
  std::set<int64_t> seen;
  for (const Action& action : action_list_) {
    if (seen.insert(action.update_id).second) {
      ids.push_back(action.update_id);
    }
    if (action.kind == Action::Kind::kDeleteKey) {
      internal_view_.EraseMatching(
          view_def().RelPositionsInJoined(action.rel), action.key);
    } else {
      // Duplicate suppression: insert only tuples not already present
      // (sound because the view retains every base relation's key).
      for (const auto& [t, c] : action.tuples.entries()) {
        (void)c;
        if (internal_view_.CountOf(t) == 0) internal_view_.Add(t, 1);
      }
    }
  }
  action_list_.clear();

  InstallAbsoluteView(Project(internal_view_, view_def().projection()),
                      std::move(ids));
  ++batch_installs_;
  SWEEP_LOG(Debug) << "Strobe installed a quiescent batch";
}

}  // namespace sweepmv
