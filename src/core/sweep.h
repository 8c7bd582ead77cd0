// SWEEP — the paper's complete-consistency algorithm (Section 5, Fig. 4).
//
// One update at a time, in warehouse arrival order:
//
//   ΔV = ΔR_i
//   for j = i-1 .. 1:  (left sweep)            for j = i+1 .. n: (right)
//     TempView = ΔV                                ... symmetric ...
//     send ΔV to source j; receive ΔV
//     if ∃ ΔR_j ∈ UpdateMessageQueue:
//       ΔV = ΔV − ΔR_j ⋈ TempView          // local on-line error correction
//   V = V + Π σ (ΔV)
//
// The compensation rule is sound because channels are FIFO: an update of
// R_j applied before source j evaluated our query necessarily has its
// notification delivered *before* the answer, so at answer time it sits in
// the update message queue; conversely an update applied after the
// evaluation cannot have arrived yet. Both components of the error term —
// ΔR_j and TempView (the partial answer before the query) — are already at
// the warehouse, so no compensating queries are needed: n-1 query/answer
// round trips per update, linear in the number of sources, and the
// materialized view steps through *every* source state in delivery order
// (complete consistency) without ever waiting for quiescence.

#ifndef SWEEPMV_CORE_SWEEP_H_
#define SWEEPMV_CORE_SWEEP_H_

#include <optional>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class SweepWarehouse : public Warehouse {
 public:
  struct SweepOptions {
    Options base;
    // Ablation switch: with local compensation off, the algorithm applies
    // raw answers, re-introducing the distributed anomaly of Section 3 —
    // the view silently diverges under interference. Used by the
    // ablation bench to demonstrate the error terms are real; never
    // disable in real use.
    bool local_compensation = true;
  };

  SweepWarehouse(int site_id, ViewDef view_def, Network* network,
                 std::vector<int> source_sites, SweepOptions options);

  SweepWarehouse(int site_id, ViewDef view_def, Network* network,
                 std::vector<int> source_sites,
                 Options options = Options{});

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "SWEEP"; }

  // Number of local compensations performed (error terms subtracted).
  int64_t compensations() const { return compensations_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("active_", self.active_);
    v.Fixed("local_compensation_", self.local_compensation_);
    v.Protocol("compensations_", self.compensations_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  // State of the ViewChange invocation in progress.
  struct ActiveSweep {
    int64_t update_id = -1;
    int update_source = -1;   // i — relation of the initiating update
    PartialDelta dv;          // ΔV
    PartialDelta temp;        // TempView (ΔV before the outstanding query)
    bool left_phase = true;
    int j = -1;               // relation currently being queried
    int64_t outstanding_query = -1;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("update_id", self.update_id);
      v.Protocol("update_source", self.update_source);
      v.Protocol("dv", self.dv);
      v.Protocol("temp", self.temp);
      v.Protocol("left_phase", self.left_phase);
      v.Protocol("j", self.j);
      v.Protocol("outstanding_query", self.outstanding_query);
    }
  };

  // Pops the next update and starts its ViewChange if idle.
  void MaybeStartNext();
  // Sends the next query of the sweep, or installs if both phases done.
  void Advance();
  void Finish();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this);
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this);
  }

  std::optional<ActiveSweep> active_;
  // Experiment knob, fixed at construction.
  bool local_compensation_ = true;
  int64_t compensations_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_SWEEP_H_
