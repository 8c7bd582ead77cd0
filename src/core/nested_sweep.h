// Nested SWEEP — cumulative updates (Section 6, Fig. 6).
//
// Like SWEEP, but when the sweep for ΔR_i detects a concurrent update ΔR_j
// it does not merely compensate and defer: it removes ΔR_j from the queue,
// subtracts the error term, then *recursively* computes ΔR_j's missing
// view-change components and folds them into the in-progress ΔV, so one
// composite delta serves the whole batch of interfering updates:
//
//   left sweep, at j:   ΔV −= ΔR_j ⋈ TempView
//                       ΔV += ViewChange(ΔR_j, j, j, UpdateSource)
//   right sweep, at j:  ΔV −= TempView ⋈ ΔR_j
//                       ΔV += ViewChange(ΔR_j, Left, j, j)
//
// The result is strong (not complete) consistency — several source states
// collapse into one warehouse state — with the message cost amortized over
// the batch. A pathological alternating sequence of mutually interfering
// updates can recurse forever; the paper notes the algorithm "can be
// easily modified to force termination", which we implement as a recursion
// budget: past `max_recursion_depth`, concurrent updates are compensated
// and left queued (plain SWEEP behaviour).

#ifndef SWEEPMV_CORE_NESTED_SWEEP_H_
#define SWEEPMV_CORE_NESTED_SWEEP_H_

#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class NestedSweepWarehouse : public Warehouse {
 public:
  struct NestedOptions {
    Options base;
    // Maximum recursion depth before falling back to SWEEP-style deferral
    // (Section 6.2's forced-termination switch). Depth 1 is the root call,
    // so a value of 1 degenerates to plain SWEEP.
    int max_recursion_depth = 64;
  };

  NestedSweepWarehouse(int site_id, ViewDef view_def, Network* network,
                       std::vector<int> source_sites,
                       NestedOptions options);

  bool Busy() const override { return !stack_.empty(); }
  std::string name() const override { return "NestedSWEEP"; }

  int64_t compensations() const { return compensations_; }
  // Number of recursive ViewChange invocations (excluding roots).
  int64_t nested_calls() const { return nested_calls_; }
  // Times the recursion budget forced SWEEP-style deferral.
  int64_t forced_deferrals() const { return forced_deferrals_; }
  int max_depth_seen() const { return max_depth_seen_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("stack_", self.stack_);
    v.Protocol("batch_ids_", self.batch_ids_);
    v.Fixed("options_", self.options_);
    v.Protocol("compensations_", self.compensations_);
    v.Protocol("nested_calls_", self.nested_calls_);
    v.Protocol("forced_deferrals_", self.forced_deferrals_);
    v.Protocol("max_depth_seen_", self.max_depth_seen_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  // One ViewChange(ΔR, left, src, right) activation record.
  struct Frame {
    int left = 0;
    int src = -1;
    int right = -1;
    PartialDelta dv;
    PartialDelta temp;
    bool left_phase = true;
    int j = -1;
    int64_t outstanding_query = -1;

    bool operator==(const Frame&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("left", self.left);
      v.Protocol("src", self.src);
      v.Protocol("right", self.right);
      v.Protocol("dv", self.dv);
      v.Protocol("temp", self.temp);
      v.Protocol("left_phase", self.left_phase);
      v.Protocol("j", self.j);
      v.Protocol("outstanding_query", self.outstanding_query);
    }
  };

  void MaybeStartNext();
  void Advance();
  // Completes the top frame: merge into the parent, or install at root.
  void CompleteTopFrame();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this, "NestedSweepWarehouse");
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this, "NestedSweepWarehouse");
  }

  std::vector<Frame> stack_;
  // Ids of every update folded into the current composite ΔV.
  std::vector<int64_t> batch_ids_;
  NestedOptions options_;
  int64_t compensations_ = 0;
  int64_t nested_calls_ = 0;
  int64_t forced_deferrals_ = 0;
  int max_depth_seen_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_NESTED_SWEEP_H_
