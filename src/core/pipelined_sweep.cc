#include "core/pipelined_sweep.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

PipelinedSweepWarehouse::PipelinedSweepWarehouse(
    int site_id, ViewDef view_def, Network* network,
    std::vector<int> source_sites, PipelineOptions options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options.base),
      options_(options) {
  SWEEP_CHECK(options_.max_inflight >= 1);
}

void PipelinedSweepWarehouse::HandleUpdateArrival() {
  // Drain the base queue into the receive log immediately; the pipeline
  // tracks its own progress through the log.
  auto& queue = mutable_queue();
  while (!queue.empty()) {
    received_.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  StartPending();
}

void PipelinedSweepWarehouse::StartPending() {
  while (static_cast<int>(inflight_.size()) < options_.max_inflight &&
         started_ < received_.size()) {
    const Update& update = received_[started_];
    Sweep sweep;
    sweep.arrival_index = started_;
    sweep.update_id = update.id;
    sweep.update_source = update.relation;
    sweep.dv = PartialDelta::ForRelation(view_def(), update.relation,
                                         update.delta);
    sweep.left_phase = true;
    sweep.j = update.relation - 1;
    ++started_;
    inflight_.push_back(std::move(sweep));
    max_observed_inflight_ = std::max(
        max_observed_inflight_, static_cast<int>(inflight_.size()));
    Advance(inflight_.back());
  }
  TryInstallInOrder();
}

void PipelinedSweepWarehouse::Advance(Sweep& sweep) {
  if (sweep.left_phase && sweep.j < 0) {
    sweep.left_phase = false;
    sweep.j = sweep.update_source + 1;
  }
  if (!sweep.left_phase && sweep.j >= view_def().num_relations()) {
    SWEEP_CHECK(sweep.dv.SpansAll(view_def()));
    sweep.complete = true;
    return;
  }
  // As in SWEEP: `dv` is dead while the query is in flight, so the
  // pre-send partial lives only in `temp` and the query payload.
  sweep.temp = std::move(sweep.dv);
  sweep.dv = PartialDelta();
  sweep.outstanding_query =
      SendSweepQuery(sweep.j, /*extend_left=*/sweep.left_phase, sweep.temp);
}

Relation PipelinedSweepWarehouse::InterferingDelta(int rel,
                                                   size_t after) const {
  Relation merged(view_def().rel_schema(rel));
  for (size_t idx = after + 1; idx < received_.size(); ++idx) {
    if (received_[idx].relation == rel) {
      merged.Merge(received_[idx].delta);
    }
  }
  return merged;
}

void PipelinedSweepWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  Sweep* sweep = nullptr;
  for (Sweep& s : inflight_) {
    if (s.outstanding_query == answer.query_id) {
      sweep = &s;
      break;
    }
  }
  SWEEP_CHECK_MSG(sweep != nullptr,
                  "answer does not match any in-flight sweep");
  // Validate the answer's shape before adopting it: the outstanding query
  // extends temp by exactly relation j, so any other span is an answer
  // this sweep never asked for. (Reachable when the recovery epoch filter
  // is off: the crash rewinds the query-id counter, and with several
  // sweeps in flight a dead incarnation's answer for a *different* hop
  // can arrive under a re-used id. Adopting it would emit a malformed
  // follow-up query; rejecting it stalls this sweep instead, which the
  // schedule explorer reports as a non-draining run.)
  const int want_lo = sweep->left_phase ? sweep->j : sweep->temp.lo;
  const int want_hi = sweep->left_phase ? sweep->temp.hi : sweep->j;
  if (answer.partial.lo != want_lo || answer.partial.hi != want_hi) {
    ++malformed_answers_rejected_;
    SWEEP_LOG(Debug) << name() << " rejected answer #" << answer.query_id
                     << " spanning [" << answer.partial.lo << ","
                     << answer.partial.hi << "], expected [" << want_lo
                     << "," << want_hi << "]";
    return;
  }
  sweep->outstanding_query = -1;
  sweep->dv = std::move(answer.partial);

  // Pipelined interference rule: compensate for every received update of
  // relation j that is later than this sweep's update in arrival order,
  // regardless of its own processing state.
  Relation interfering =
      InterferingDelta(sweep->j, sweep->arrival_index);
  if (!interfering.Empty()) {
    PartialDelta error =
        sweep->left_phase
            ? ExtendLeft(view_def(), interfering, sweep->temp)
            : ExtendRight(view_def(), sweep->temp, interfering);
    sweep->dv.rel.MergeNegated(error.rel);
    ++compensations_;
  }

  sweep->j += sweep->left_phase ? -1 : 1;
  Advance(*sweep);
  TryInstallInOrder();
  StartPending();
}

void PipelinedSweepWarehouse::TryInstallInOrder() {
  while (!inflight_.empty() && inflight_.front().complete) {
    Sweep done = std::move(inflight_.front());
    inflight_.pop_front();
    InstallViewDelta(view_def().FinishFullSpan(std::move(done.dv.rel)),
                     {done.update_id});
  }
}

std::shared_ptr<const Warehouse::AlgState>
PipelinedSweepWarehouse::SaveAlgState() const {
  Saved s;
  s.received = received_;
  s.started = started_;
  s.inflight = inflight_;
  s.compensations = compensations_;
  s.max_observed_inflight = max_observed_inflight_;
  s.malformed_answers_rejected = malformed_answers_rejected_;
  return std::make_shared<TypedAlgState<Saved>>(std::move(s));
}

void PipelinedSweepWarehouse::RestoreAlgState(const AlgState& state) {
  const Saved& s = AlgStateAs<Saved>(state);
  received_ = s.received;
  started_ = s.started;
  inflight_ = s.inflight;
  compensations_ = s.compensations;
  max_observed_inflight_ = s.max_observed_inflight;
  malformed_answers_rejected_ = s.malformed_answers_rejected;
}

void PipelinedSweepWarehouse::CaptureUndoAlgState(UndoLog& undo) {
  undo.CaptureValue(&received_,
                    {"PipelinedSweepWarehouse", "received_", site_id()});
  undo.CaptureValue(&started_,
                    {"PipelinedSweepWarehouse", "started_", site_id()});
  undo.CaptureValue(&inflight_,
                    {"PipelinedSweepWarehouse", "inflight_", site_id()});
  undo.CaptureValue(&compensations_,
                    {"PipelinedSweepWarehouse", "compensations_", site_id()});
  undo.CaptureValue(
      &max_observed_inflight_,
      {"PipelinedSweepWarehouse", "max_observed_inflight_", site_id()});
  undo.CaptureValue(
      &malformed_answers_rejected_,
      {"PipelinedSweepWarehouse", "malformed_answers_rejected_", site_id()});
}

void PipelinedSweepWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  w.WriteI64(static_cast<int64_t>(received_.size()));
  for (const Update& update : received_) w.WriteUpdate(update);
  w.WriteI64(static_cast<int64_t>(started_));
  w.WriteI64(static_cast<int64_t>(inflight_.size()));
  for (const Sweep& sweep : inflight_) {
    w.WriteI64(static_cast<int64_t>(sweep.arrival_index));
    w.WriteI64(sweep.update_id);
    w.WriteI32(sweep.update_source);
    w.WritePartialDelta(sweep.dv);
    w.WritePartialDelta(sweep.temp);
    w.WriteBool(sweep.left_phase);
    w.WriteI32(sweep.j);
    w.WriteI64(sweep.outstanding_query);
    w.WriteBool(sweep.complete);
  }
  w.WriteI64(compensations_);
  w.WriteI32(max_observed_inflight_);
  w.WriteI64(malformed_answers_rejected_);
}

void PipelinedSweepWarehouse::DeserializeAlgState(CheckpointReader& r) {
  received_.clear();
  const int64_t received = r.ReadI64();
  for (int64_t i = 0; i < received; ++i) {
    received_.push_back(r.ReadUpdate());
  }
  started_ = static_cast<size_t>(r.ReadI64());
  inflight_.clear();
  const int64_t sweeps = r.ReadI64();
  for (int64_t i = 0; i < sweeps; ++i) {
    Sweep sweep;
    sweep.arrival_index = static_cast<size_t>(r.ReadI64());
    sweep.update_id = r.ReadI64();
    sweep.update_source = r.ReadI32();
    sweep.dv = r.ReadPartialDelta();
    sweep.temp = r.ReadPartialDelta();
    sweep.left_phase = r.ReadBool();
    sweep.j = r.ReadI32();
    sweep.outstanding_query = r.ReadI64();
    sweep.complete = r.ReadBool();
    inflight_.push_back(std::move(sweep));
  }
  compensations_ = r.ReadI64();
  max_observed_inflight_ = r.ReadI32();
  malformed_answers_rejected_ = r.ReadI64();
}

}  // namespace sweepmv
