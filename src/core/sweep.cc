#include "core/sweep.h"

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

SweepWarehouse::SweepWarehouse(int site_id, ViewDef view_def,
                               Network* network,
                               std::vector<int> source_sites,
                               SweepOptions options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options.base),
      local_compensation_(options.local_compensation) {}

SweepWarehouse::SweepWarehouse(int site_id, ViewDef view_def,
                               Network* network,
                               std::vector<int> source_sites,
                               Options options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options) {}

void SweepWarehouse::HandleUpdateArrival() { MaybeStartNext(); }

void SweepWarehouse::MaybeStartNext() {
  if (active_.has_value()) return;
  // Sharded operation: foreign updates ride the queue only so a running
  // sweep's compensation can observe them; with no sweep active any run
  // of them at the head has served its purpose and is discarded (the
  // owning shard maintains the view against them).
  DiscardForeignQueueHead();
  if (mutable_queue().empty()) return;

  Update update = std::move(mutable_queue().front());
  mutable_queue().pop_front();

  ActiveSweep sweep;
  sweep.update_id = update.id;
  sweep.update_source = update.relation;
  sweep.dv = PartialDelta::ForRelation(view_def(), update.relation,
                                       std::move(update.delta));
  sweep.left_phase = true;
  sweep.j = update.relation - 1;
  active_ = std::move(sweep);
  SWEEP_LOG(Debug) << "SWEEP starts ViewChange for u" << active_->update_id
                   << " at R" << active_->update_source;
  Advance();
}

void SweepWarehouse::Advance() {
  SWEEP_CHECK(active_.has_value());
  ActiveSweep& sweep = *active_;

  if (sweep.left_phase && sweep.j < 0) {
    // Left sweep exhausted; begin the right sweep.
    sweep.left_phase = false;
    sweep.j = sweep.update_source + 1;
  }
  if (!sweep.left_phase && sweep.j >= view_def().num_relations()) {
    Finish();
    return;
  }

  // While the query is in flight `dv` is dead: HandleQueryAnswer
  // overwrites it before any read, and recovery re-issues the query from
  // the pending-query request, not from algorithm state. So the pre-send
  // partial lives only in `temp` (compensation needs it) and the single
  // remaining copy per hop is the query payload itself. `dv` is reset to
  // a defined empty value so checkpoints of an in-flight sweep stay
  // deterministic.
  sweep.temp = std::move(sweep.dv);
  sweep.dv = PartialDelta();
  sweep.outstanding_query =
      SendSweepQuery(sweep.j, /*extend_left=*/sweep.left_phase, sweep.temp);
}

void SweepWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  SWEEP_CHECK(active_.has_value());
  ActiveSweep& sweep = *active_;
  SWEEP_CHECK_MSG(answer.query_id == sweep.outstanding_query,
                  "answer does not match the outstanding query");
  sweep.outstanding_query = -1;
  sweep.dv = std::move(answer.partial);

  // On-line error correction: every ΔR_j now sitting in the update message
  // queue was, by FIFO, applied at source j before our query evaluated, so
  // the answer includes the error term ΔR_j ⋈ TempView. Both factors are
  // local; subtract. Multiple interfering updates merge into one ΔR_j.
  Relation interfering = local_compensation_
                             ? MergedQueueDeltaFor(sweep.j)
                             : Relation(view_def().rel_schema(sweep.j));
  if (!interfering.Empty()) {
    PartialDelta error =
        sweep.left_phase ? ExtendLeft(view_def(), interfering, sweep.temp)
                         : ExtendRight(view_def(), sweep.temp, interfering);
    sweep.dv.rel.MergeNegated(error.rel);
    ++compensations_;
    SWEEP_LOG(Debug) << "SWEEP compensated for concurrent ΔR" << sweep.j
                     << ": " << error.rel.ToDisplayString();
  }

  sweep.j += sweep.left_phase ? -1 : 1;
  Advance();
}

void SweepWarehouse::Finish() {
  SWEEP_CHECK(active_.has_value());
  ActiveSweep& sweep = *active_;
  SWEEP_CHECK(sweep.dv.SpansAll(view_def()));
  InstallViewDelta(view_def().FinishFullSpan(std::move(sweep.dv.rel)),
                   {sweep.update_id});
  active_.reset();
  MaybeStartNext();
}

std::shared_ptr<const Warehouse::AlgState> SweepWarehouse::SaveAlgState()
    const {
  Saved s;
  s.active = active_;
  s.compensations = compensations_;
  return std::make_shared<TypedAlgState<Saved>>(std::move(s));
}

void SweepWarehouse::RestoreAlgState(const AlgState& state) {
  const Saved& s = AlgStateAs<Saved>(state);
  active_ = s.active;
  compensations_ = s.compensations;
}

void SweepWarehouse::CaptureUndoAlgState(UndoLog& undo) {
  undo.CaptureValue(&active_, {"SweepWarehouse", "active_", site_id()});
  undo.CaptureValue(&compensations_,
                    {"SweepWarehouse", "compensations_", site_id()});
}

void SweepWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  w.WriteBool(active_.has_value());
  if (active_.has_value()) {
    w.WriteI64(active_->update_id);
    w.WriteI32(active_->update_source);
    w.WritePartialDelta(active_->dv);
    w.WritePartialDelta(active_->temp);
    w.WriteBool(active_->left_phase);
    w.WriteI32(active_->j);
    w.WriteI64(active_->outstanding_query);
  }
  w.WriteI64(compensations_);
}

void SweepWarehouse::DeserializeAlgState(CheckpointReader& r) {
  active_.reset();
  if (r.ReadBool()) {
    ActiveSweep sweep;
    sweep.update_id = r.ReadI64();
    sweep.update_source = r.ReadI32();
    sweep.dv = r.ReadPartialDelta();
    sweep.temp = r.ReadPartialDelta();
    sweep.left_phase = r.ReadBool();
    sweep.j = r.ReadI32();
    sweep.outstanding_query = r.ReadI64();
    active_ = std::move(sweep);
  }
  compensations_ = r.ReadI64();
}

}  // namespace sweepmv
