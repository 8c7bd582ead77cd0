// C-Strobe — baseline [ZGMW96], as characterized in Sections 3-4.
//
// C-Strobe restores complete consistency to Strobe by handling each update
// completely, in arrival order, before touching the next:
//   * an initial delete is applied locally (key-delete on the view, zero
//     messages — the unique-key assumption at work);
//   * an initial insert launches a sweep query; every concurrent update
//     that could have contaminated an in-flight answer is compensated:
//       - a concurrent *insert* is offset locally by deleting matching
//         tuples from the accumulated answer (duplicate suppression);
//       - a concurrent *delete* may have removed tuples the answer should
//         contain, so a *compensating query* is dispatched to re-fetch the
//         missing term (the deleted tuple pinned at its position); those
//         queries are themselves subject to interference and recurse.
// Because compensation is remote, the number of queries per update grows
// combinatorially with the interference rate — the K^(n-2) / (n-1)! blow-up
// of Section 3 that motivates SWEEP's local compensation. C-Strobe follows
// the conservative interference rule the paper criticizes in Section 4:
// every update received while any query of the batch is outstanding is
// treated as interfering; the key assumption makes over-compensation
// harmless (suppressed duplicates), never incorrect.

#ifndef SWEEPMV_CORE_CSTROBE_H_
#define SWEEPMV_CORE_CSTROBE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class CStrobeWarehouse : public Warehouse {
 public:
  CStrobeWarehouse(int site_id, ViewDef view_def, Network* network,
                   std::vector<int> source_sites,
                   Options options = Options{});

  void InitializeAuxiliary(
      const std::vector<Relation>& initial_bases) override;

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "C-Strobe"; }

  // Compensating queries dispatched over the whole run.
  int64_t compensating_queries() const { return compensating_queries_; }
  // Largest number of sweep tasks a single update required.
  int64_t max_tasks_per_update() const { return max_tasks_per_update_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("internal_view_", self.internal_view_);
    v.Protocol("root_delta_", self.root_delta_);
    v.Protocol("active_", self.active_);
    v.Protocol("observed_deletes_", self.observed_deletes_);
    v.Protocol("spawned_", self.spawned_);
    v.Protocol("compensating_queries_", self.compensating_queries_);
    v.Protocol("max_tasks_per_update_", self.max_tasks_per_update_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  // A pin set: positions resolved from pinned deleted tuples instead of
  // queried. Tasks are identified by their pin signature.
  using Signature = std::map<int, Tuple>;

  // One sweep across the chain; `fixed` positions (the update's own
  // relation plus any pinned deleted tuples) are joined locally instead of
  // queried.
  struct Task {
    int64_t local_id = -1;
    PartialDelta pd;
    std::map<int, Relation> fixed;
    bool left_phase = true;
    int j = -1;
    int64_t outstanding_query = -1;

    bool operator==(const Task&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("local_id", self.local_id);
      v.Protocol("pd", self.pd);
      v.Protocol("fixed", self.fixed);
      v.Protocol("left_phase", self.left_phase);
      v.Protocol("j", self.j);
      v.Protocol("outstanding_query", self.outstanding_query);
    }
  };

  struct ActiveUpdate {
    int64_t update_id = -1;
    int src_rel = -1;
    Relation answer;  // accumulated full-span result (set semantics)
    std::vector<Task> tasks;
    // Concurrent inserts to be offset locally at finalize: (rel, tuple).
    std::vector<std::pair<int, Tuple>> local_removals;
    int64_t tasks_created = 0;

    bool operator==(const ActiveUpdate&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("update_id", self.update_id);
      v.Protocol("src_rel", self.src_rel);
      v.Protocol("answer", self.answer);
      v.Protocol("tasks", self.tasks);
      v.Protocol("local_removals", self.local_removals);
      v.Protocol("tasks_created", self.tasks_created);
    }
  };

  void MaybeStartNext();
  // Creates a task with the given pin signature (if not already spawned)
  // and, per the conservative rule, recursively pairs it with every
  // already-known concurrent delete it does not pin yet. Queries are not
  // sent here; StartUnsentTasks does that once the closure is complete.
  void SpawnTask(const Signature& sig);
  void StartUnsentTasks();
  // Runs the task until it blocks on a query or completes. Returns true
  // if the whole batch finalized (active_ was consumed).
  bool AdvanceTask(int64_t local_id);
  // Reacts to an update arriving while a batch is being evaluated.
  void HandleInterference(const Update& update);
  void FinalizeActive();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this, "CStrobeWarehouse");
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this, "CStrobeWarehouse");
  }

  Relation internal_view_;  // full-span, selection applied, set semantics
  Relation root_delta_;     // insert part of the update being processed
  std::optional<ActiveUpdate> active_;
  // Deletes observed while the current batch is active: (rel, tuple).
  std::vector<std::pair<int, Tuple>> observed_deletes_;
  std::set<Signature> spawned_;
  int64_t compensating_queries_ = 0;
  int64_t max_tasks_per_update_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_CSTROBE_H_
