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

#include "common/snapshot.h"
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

    bool operator==(const Sweep&) const = default;
  };

  void StartPending();
  void Advance(Sweep& sweep);
  // Merged deltas of every received update of `rel` with arrival index
  // greater than `after` (the pipelined interference rule).
  Relation InterferingDelta(int rel, size_t after) const;
  void TryInstallInOrder();

  // Snapshot/restore: everything mutable below (options_ is immutable).
  struct Saved {
    std::vector<Update> received;
    size_t started = 0;
    std::deque<Sweep> inflight;
    int64_t compensations = 0;
    int max_observed_inflight = 0;
    int64_t malformed_answers_rejected = 0;
  };
  std::shared_ptr<const AlgState> SaveAlgState() const override;
  void RestoreAlgState(const AlgState& state) override;
  void CaptureUndoAlgState(UndoLog& undo) override;
  void SerializeAlgState(CheckpointWriter& w) const override;
  void DeserializeAlgState(CheckpointReader& r) override;

  SWEEP_SNAPSHOT_EXEMPT("tuning knobs, fixed at construction")
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
