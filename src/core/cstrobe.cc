#include "core/cstrobe.h"

#include "common/check.h"
#include "common/log.h"
#include "relational/operators.h"

namespace sweepmv {

CStrobeWarehouse::CStrobeWarehouse(int site_id, ViewDef view_def,
                                   Network* network,
                                   std::vector<int> source_sites,
                                   Options options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options) {}

void CStrobeWarehouse::InitializeAuxiliary(
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

void CStrobeWarehouse::HandleUpdateArrival() {
  if (active_.has_value()) {
    // The newest queued update interferes with the batch in flight
    // (conservative rule: received while any query is outstanding).
    HandleInterference(mutable_queue().back());
    StartUnsentTasks();
    return;
  }
  MaybeStartNext();
}

void CStrobeWarehouse::MaybeStartNext() {
  while (!active_.has_value() && !mutable_queue().empty()) {
    Update update = std::move(mutable_queue().front());
    mutable_queue().pop_front();

    Relation inserts(view_def().rel_schema(update.relation));
    std::vector<Tuple> deletes;
    for (const auto& [t, c] : update.delta.entries()) {
      if (c > 0) {
        inserts.Add(t, c);
      } else {
        deletes.push_back(t);
      }
    }

    // Initial deletes: incorporated locally via key-deletes (zero
    // messages — the unique-key assumption at work).
    for (const Tuple& t : deletes) {
      internal_view_.EraseMatching(
          view_def().RelPositionsInJoined(update.relation), t);
    }

    if (inserts.Empty()) {
      InstallAbsoluteView(Project(internal_view_, view_def().projection()),
                          {update.id});
      continue;
    }

    // Single-relation views need no remote evaluation.
    if (view_def().num_relations() == 1) {
      Relation sel = Select(inserts, view_def().selection());
      sel.ClampToSet();
      for (const auto& [t, c] : sel.entries()) {
        (void)c;
        if (internal_view_.CountOf(t) == 0) internal_view_.Add(t, 1);
      }
      InstallAbsoluteView(Project(internal_view_, view_def().projection()),
                          {update.id});
      continue;
    }

    ActiveUpdate batch;
    batch.update_id = update.id;
    batch.src_rel = update.relation;
    batch.answer = Relation(view_def().joined_schema());
    active_ = std::move(batch);
    observed_deletes_.clear();
    spawned_.clear();
    root_delta_ = std::move(inserts);

    // Conservatively treat everything already queued as concurrent.
    for (const Update& w : mutable_queue()) HandleInterference(w);

    SpawnTask(Signature{});
    StartUnsentTasks();
  }
}

void CStrobeWarehouse::SpawnTask(const Signature& sig) {
  SWEEP_CHECK(active_.has_value());
  if (!spawned_.insert(sig).second) return;  // already covered

  Task task;
  task.local_id = active_->tasks_created++;
  task.pd = PartialDelta::ForRelation(view_def(), active_->src_rel,
                                      root_delta_);
  for (const auto& [rel, tuple] : sig) {
    Relation pinned(view_def().rel_schema(rel));
    pinned.Add(tuple, 1);
    task.fixed.emplace(rel, std::move(pinned));
  }
  task.left_phase = true;
  task.j = active_->src_rel - 1;
  if (!sig.empty()) ++compensating_queries_;
  active_->tasks.push_back(std::move(task));
  if (active_->tasks_created > max_tasks_per_update_) {
    max_tasks_per_update_ = active_->tasks_created;
  }

  // Close over every already-observed concurrent delete this task does
  // not pin yet.
  for (size_t i = 0; i < observed_deletes_.size(); ++i) {
    const auto [rel, tuple] = observed_deletes_[i];
    if (rel == active_->src_rel || sig.count(rel) != 0) continue;
    Signature wider = sig;
    wider.emplace(rel, tuple);
    SpawnTask(wider);
  }
}

void CStrobeWarehouse::StartUnsentTasks() {
  if (!active_.has_value()) return;
  // Collect ids first: AdvanceTask can erase tasks (fully pinned sweeps
  // complete without any query) and, in principle, finalize the batch.
  std::vector<int64_t> unsent;
  for (const Task& task : active_->tasks) {
    if (task.outstanding_query == -1) unsent.push_back(task.local_id);
  }
  for (int64_t id : unsent) {
    if (!active_.has_value()) return;  // batch finalized mid-loop
    if (AdvanceTask(id)) return;
  }
}

bool CStrobeWarehouse::AdvanceTask(int64_t local_id) {
  SWEEP_CHECK(active_.has_value());
  size_t index = active_->tasks.size();
  for (size_t i = 0; i < active_->tasks.size(); ++i) {
    if (active_->tasks[i].local_id == local_id) {
      index = i;
      break;
    }
  }
  SWEEP_CHECK_MSG(index < active_->tasks.size(), "unknown C-Strobe task");

  while (true) {
    Task& task = active_->tasks[index];
    if (task.left_phase && task.j < 0) {
      task.left_phase = false;
      task.j = active_->src_rel + 1;
    }
    if (!task.left_phase && task.j >= view_def().num_relations()) {
      // Task complete: fold its (selection-filtered) result into the
      // batch answer with duplicate suppression.
      SWEEP_CHECK(task.pd.SpansAll(view_def()));
      Relation result = Select(task.pd.rel, view_def().selection());
      for (const auto& [t, c] : result.entries()) {
        (void)c;
        if (active_->answer.CountOf(t) == 0) active_->answer.Add(t, 1);
      }
      active_->tasks.erase(active_->tasks.begin() +
                           static_cast<std::ptrdiff_t>(index));
      if (active_->tasks.empty()) {
        FinalizeActive();
        return true;
      }
      return false;
    }

    auto fixed_it = task.fixed.find(task.j);
    if (fixed_it != task.fixed.end()) {
      // Pinned position: extend locally with the pinned tuple.
      task.pd = task.left_phase
                    ? ExtendLeft(view_def(), fixed_it->second, task.pd)
                    : ExtendRight(view_def(), task.pd, fixed_it->second);
      task.j += task.left_phase ? -1 : 1;
      continue;
    }

    task.outstanding_query =
        SendSweepQuery(task.j, /*extend_left=*/task.left_phase, task.pd);
    return false;
  }
}

void CStrobeWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  SWEEP_CHECK(active_.has_value());
  for (Task& task : active_->tasks) {
    if (task.outstanding_query == answer.query_id) {
      task.outstanding_query = -1;
      task.pd = std::move(answer.partial);
      task.j += task.left_phase ? -1 : 1;
      AdvanceTask(task.local_id);
      return;
    }
  }
  SWEEP_CHECK_MSG(false, "answer does not match any C-Strobe task");
}

void CStrobeWarehouse::HandleInterference(const Update& update) {
  SWEEP_CHECK(active_.has_value());
  // Sorted: the iteration order decides the order of local_removals /
  // observed_deletes_ (both checkpoint-serialized) and the signature
  // widening sequence, so an unordered walk would leak hash-table order
  // into checkpoint bytes and task-spawn order.
  for (const auto& [t, c] : update.delta.SortedEntries()) {
    if (c > 0) {
      // Concurrent insert: offset locally at finalize time by deleting
      // the matching tuples from the accumulated answer.
      active_->local_removals.emplace_back(update.relation, t);
    } else if (update.relation != active_->src_rel) {
      // Concurrent delete: in-flight answers may be missing this tuple's
      // contribution; widen every known pin signature with it (the new
      // tasks are started by the caller via StartUnsentTasks).
      observed_deletes_.emplace_back(update.relation, t);
      std::vector<Signature> existing(spawned_.begin(), spawned_.end());
      for (const Signature& sig : existing) {
        if (sig.count(update.relation) != 0) continue;
        Signature wider = sig;
        wider.emplace(update.relation, t);
        SpawnTask(wider);
      }
    }
  }
}

void CStrobeWarehouse::FinalizeActive() {
  SWEEP_CHECK(active_.has_value());
  for (const auto& [rel, key] : active_->local_removals) {
    active_->answer.EraseMatching(view_def().RelPositionsInJoined(rel),
                                  key);
  }
  for (const auto& [t, c] : active_->answer.entries()) {
    (void)c;
    if (internal_view_.CountOf(t) == 0) internal_view_.Add(t, 1);
  }
  int64_t id = active_->update_id;
  active_.reset();
  observed_deletes_.clear();
  spawned_.clear();
  InstallAbsoluteView(Project(internal_view_, view_def().projection()),
                      {id});
  MaybeStartNext();
}

}  // namespace sweepmv
