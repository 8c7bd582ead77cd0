// Strobe — baseline [ZGMW96], as characterized in Sections 3-4 of the
// paper.
//
// Strobe assumes the view retains the key attributes of every base
// relation (here: the full base tuples — the view is maintained
// un-projected internally and projected on export). Updates are handled as
// they arrive:
//   * a delete is appended to the action list AL as a key-delete and also
//     queued against every in-flight query;
//   * an insert launches a sweep query across the other sources (no
//     compensation); when the answer completes, tuples matching queued
//     deletes are removed and the answer is appended to AL as an insert.
// AL is applied to the view only when the system is quiescent (no pending
// queries, no unprocessed updates) — the paper's central criticism: under
// a continuous update stream the materialized view is never refreshed and
// trails the sources arbitrarily. Error terms caused by concurrent inserts
// are neutralized by duplicate suppression at install time (set semantics
// justified by the key assumption). Consistency: strong.

#ifndef SWEEPMV_CORE_STROBE_H_
#define SWEEPMV_CORE_STROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class StrobeWarehouse : public Warehouse {
 public:
  StrobeWarehouse(int site_id, ViewDef view_def, Network* network,
                  std::vector<int> source_sites,
                  Options options = Options{});

  void InitializeAuxiliary(
      const std::vector<Relation>& initial_bases) override;

  bool Busy() const override { return !pending_.empty(); }
  std::string name() const override { return "Strobe"; }

  // Installs performed (each covers a whole quiescent batch).
  int64_t batch_installs() const { return batch_installs_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("internal_view_", self.internal_view_);
    v.Protocol("pending_", self.pending_);
    v.Protocol("action_list_", self.action_list_);
    v.Protocol("batch_installs_", self.batch_installs_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  struct PendingQuery {
    int64_t update_id = -1;
    int src_rel = -1;
    PartialDelta pd;
    bool left_phase = true;
    int j = -1;
    int64_t outstanding_query = -1;
    // Deletes that arrived while this query was in flight: (relation,
    // deleted base tuple).
    std::vector<std::pair<int, Tuple>> pending_deletes;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("update_id", self.update_id);
      v.Protocol("src_rel", self.src_rel);
      v.Protocol("pd", self.pd);
      v.Protocol("left_phase", self.left_phase);
      v.Protocol("j", self.j);
      v.Protocol("outstanding_query", self.outstanding_query);
      v.Protocol("pending_deletes", self.pending_deletes);
    }
  };

  struct Action {
    enum class Kind { kDeleteKey, kInsert };
    Kind kind = Kind::kInsert;
    int rel = -1;       // kDeleteKey
    Tuple key;          // kDeleteKey
    Relation tuples;    // kInsert: full-span set of view tuples
    int64_t update_id = -1;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("kind", self.kind);
      v.Protocol("rel", self.rel);
      v.Protocol("key", self.key);
      v.Protocol("tuples", self.tuples);
      v.Protocol("update_id", self.update_id);
    }
  };

  void ProcessArrivals();
  void AdvanceQuery(PendingQuery& query);
  void FinalizeQuery(size_t index);
  void TryInstall();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this);
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this);
  }

  // Full-span, selection-applied, set-semantics view (keys preserved).
  Relation internal_view_;
  std::vector<PendingQuery> pending_;
  std::vector<Action> action_list_;
  int64_t batch_installs_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_STROBE_H_
