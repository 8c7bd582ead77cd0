// Pipelined SWEEP — Section 5.3's second optimization.
//
// "Another optimization ... is to pipeline the view construction for
// multiple updates. This will introduce some complexity in the data
// warehouse software module but will result in a rapid installation of
// view changes ... To maintain consistency, the view changes should be
// incorporated in the order of the arrival of the updates and a more
// elaborate mechanism will be needed to detect concurrent updates."
//
// The elaborate mechanism: with several ViewChanges in flight, the update
// message queue no longer contains exactly the updates later than the one
// being processed, so interference is decided against the *full receive
// log*: when the sweep for update u receives an answer from source j, it
// compensates for every received update w of relation j whose arrival
// index exceeds u's — whether w is queued, in flight, or not yet started.
// (The FIFO argument is unchanged: any ΔR_j applied before the query
// evaluated has been delivered by answer time, hence is in the log.)
// Completed deltas are buffered and installed strictly in arrival order,
// preserving complete consistency while the sweeps overlap: throughput is
// no longer bounded by one update per (n-1) round trips — the saturation
// the staleness experiment (E4) exposes for sequential SWEEP.

#ifndef SWEEPMV_CORE_PIPELINED_SWEEP_H_
#define SWEEPMV_CORE_PIPELINED_SWEEP_H_

#include <deque>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class PipelinedSweepWarehouse : public Warehouse {
 public:
  struct PipelineOptions {
    Options base;
    // Maximum ViewChanges in flight. 1 degenerates to sequential SWEEP.
    int max_inflight = 16;
  };

  PipelinedSweepWarehouse(int site_id, ViewDef view_def, Network* network,
                          std::vector<int> source_sites,
                          PipelineOptions options);

  bool Busy() const override {
    return !inflight_.empty() || started_ < received_.size();
  }
  std::string name() const override { return "PipelinedSWEEP"; }

  int64_t compensations() const { return compensations_; }
  int max_observed_inflight() const { return max_observed_inflight_; }
  int64_t malformed_answers_rejected() const {
    return malformed_answers_rejected_;
  }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("options_", self.options_);
    v.Protocol("received_", self.received_);
    v.Protocol("started_", self.started_);
    v.Protocol("inflight_", self.inflight_);
    v.Protocol("compensations_", self.compensations_);
    v.Protocol("max_observed_inflight_", self.max_observed_inflight_);
    v.Protocol("malformed_answers_rejected_",
               self.malformed_answers_rejected_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  struct Sweep {
    size_t arrival_index = 0;
    int64_t update_id = -1;
    int update_source = -1;
    PartialDelta dv;  // holds the full span from completion to install
    PartialDelta temp;
    bool left_phase = true;
    int j = -1;
    int64_t outstanding_query = -1;
    bool complete = false;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("arrival_index", self.arrival_index);
      v.Protocol("update_id", self.update_id);
      v.Protocol("update_source", self.update_source);
      v.Protocol("dv", self.dv);
      v.Protocol("temp", self.temp);
      v.Protocol("left_phase", self.left_phase);
      v.Protocol("j", self.j);
      v.Protocol("outstanding_query", self.outstanding_query);
      v.Protocol("complete", self.complete);
    }
  };

  void StartPending();
  void Advance(Sweep& sweep);
  // Merged deltas of every received update of `rel` with arrival index
  // greater than `after` (the pipelined interference rule).
  Relation InterferingDelta(int rel, size_t after) const;
  void TryInstallInOrder();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this);
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this);
  }

  PipelineOptions options_;
  // Every update ever received, in arrival order (the receive log the
  // interference rule consults).
  std::vector<Update> received_;
  size_t started_ = 0;  // prefix of received_ whose sweeps have begun
  std::deque<Sweep> inflight_;  // ordered by arrival index
  int64_t compensations_ = 0;
  int max_observed_inflight_ = 0;
  int64_t malformed_answers_rejected_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_PIPELINED_SWEEP_H_
