// Parallel SWEEP — Section 5.3's first optimization.
//
// "The two for loops, i.e., the left and right sweeps, in the ViewChange
// function are independent and therefore can be executed in parallel. The
// only requirement will be that the two partial views obtained after the
// two sweeps complete should be merged, i.e., ΔV = ΔV_left ⋈ ΔV_right."
//
// Identical message count and consistency guarantee (complete) as SWEEP;
// the win is latency: the two directional query chains overlap, so a
// ViewChange completes in max(i, n-1-i) round trips instead of n-1. The
// right sweep is seeded with the update's tuples at unit count so the
// rendezvous join does not square the multiplicities; on-line error
// correction applies per side exactly as in SWEEP.

#ifndef SWEEPMV_CORE_PARALLEL_SWEEP_H_
#define SWEEPMV_CORE_PARALLEL_SWEEP_H_

#include <optional>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class ParallelSweepWarehouse : public Warehouse {
 public:
  ParallelSweepWarehouse(int site_id, ViewDef view_def, Network* network,
                         std::vector<int> source_sites,
                         Options options = Options{});

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "ParallelSWEEP"; }

  int64_t compensations() const { return compensations_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("active_", self.active_);
    v.Protocol("compensations_", self.compensations_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  struct Side {
    bool extend_left = true;  // direction of this sweep
    PartialDelta dv;
    PartialDelta temp;
    int j = -1;
    bool done = false;
    int64_t outstanding_query = -1;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("extend_left", self.extend_left);
      v.Protocol("dv", self.dv);
      v.Protocol("temp", self.temp);
      v.Protocol("j", self.j);
      v.Protocol("done", self.done);
      v.Protocol("outstanding_query", self.outstanding_query);
    }
  };

  struct ActiveSweep {
    int64_t update_id = -1;
    int update_source = -1;
    Side left;
    Side right;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("update_id", self.update_id);
      v.Protocol("update_source", self.update_source);
      v.Protocol("left", self.left);
      v.Protocol("right", self.right);
    }
  };

  void MaybeStartNext();
  // Sends the side's next query or marks it done. Returns true if the
  // whole ViewChange finished (both sides done and installed).
  void AdvanceSide(Side& side);
  void MaybeFinish();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this);
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this);
  }

  std::optional<ActiveSweep> active_;
  int64_t compensations_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_PARALLEL_SWEEP_H_
