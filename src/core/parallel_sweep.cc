#include "core/parallel_sweep.h"

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

ParallelSweepWarehouse::ParallelSweepWarehouse(
    int site_id, ViewDef view_def, Network* network,
    std::vector<int> source_sites, Options options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options) {}

void ParallelSweepWarehouse::HandleUpdateArrival() { MaybeStartNext(); }

void ParallelSweepWarehouse::MaybeStartNext() {
  if (active_.has_value() || mutable_queue().empty()) return;

  Update update = std::move(mutable_queue().front());
  mutable_queue().pop_front();

  const int i = update.relation;
  const int n = view_def().num_relations();

  ActiveSweep sweep;
  sweep.update_id = update.id;
  sweep.update_source = i;

  // The left side carries the true signed delta counts; the right side is
  // seeded at +1 per distinct tuple so the rendezvous join neither
  // squares multiplicities nor squares the sign away (the join pairs rows
  // per seed tuple, multiplying c · left-matches · right-matches). When
  // one direction is empty, the other carries the true counts and no
  // merge is needed.
  Relation abs_seed(update.delta.schema());
  for (const auto& [t, c] : update.delta.entries()) {
    (void)c;
    abs_seed.Add(t, 1);
  }

  const bool has_left = i > 0;
  const bool has_right = i < n - 1;

  sweep.right.extend_left = false;
  sweep.right.dv = PartialDelta::ForRelation(
      view_def(), i, has_left ? std::move(abs_seed) : update.delta);
  sweep.right.j = i + 1;
  sweep.right.done = !has_right;

  sweep.left.extend_left = true;
  sweep.left.dv =
      PartialDelta::ForRelation(view_def(), i, std::move(update.delta));
  sweep.left.j = i - 1;
  sweep.left.done = !has_left;

  active_ = std::move(sweep);
  if (has_left) AdvanceSide(active_->left);
  if (has_right) AdvanceSide(active_->right);
  MaybeFinish();
}

void ParallelSweepWarehouse::AdvanceSide(Side& side) {
  SWEEP_CHECK(active_.has_value());
  if (side.extend_left ? side.j < 0
                       : side.j >= view_def().num_relations()) {
    side.done = true;
    return;
  }
  // As in SWEEP: `dv` is dead while the query is in flight, so the
  // pre-send partial lives only in `temp` and the query payload.
  side.temp = std::move(side.dv);
  side.dv = PartialDelta();
  side.outstanding_query =
      SendSweepQuery(side.j, side.extend_left, side.temp);
}

void ParallelSweepWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  SWEEP_CHECK(active_.has_value());
  Side* side = nullptr;
  if (active_->left.outstanding_query == answer.query_id) {
    side = &active_->left;
  } else if (active_->right.outstanding_query == answer.query_id) {
    side = &active_->right;
  }
  SWEEP_CHECK_MSG(side != nullptr,
                  "answer does not match either directional sweep");
  side->outstanding_query = -1;
  side->dv = std::move(answer.partial);

  // On-line error correction, per side — the rule and its FIFO argument
  // are unchanged from sequential SWEEP.
  Relation interfering = MergedQueueDeltaFor(side->j);
  if (!interfering.Empty()) {
    PartialDelta error =
        side->extend_left
            ? ExtendLeft(view_def(), interfering, side->temp)
            : ExtendRight(view_def(), side->temp, interfering);
    side->dv.rel.MergeNegated(error.rel);
    ++compensations_;
  }

  side->j += side->extend_left ? -1 : 1;
  AdvanceSide(*side);
  MaybeFinish();
}

void ParallelSweepWarehouse::MaybeFinish() {
  SWEEP_CHECK(active_.has_value());
  if (!active_->left.done || !active_->right.done) return;

  const int i = active_->update_source;
  const int n = view_def().num_relations();
  PartialDelta full;
  if (i == 0) {
    full = std::move(active_->right.dv);
  } else if (i == n - 1) {
    full = std::move(active_->left.dv);
  } else {
    full = MergeParallelSweeps(view_def(), i, active_->left.dv,
                               active_->right.dv);
  }
  SWEEP_CHECK(full.SpansAll(view_def()));
  InstallViewDelta(view_def().FinishFullSpan(std::move(full.rel)),
                   {active_->update_id});
  active_.reset();
  MaybeStartNext();
}

std::shared_ptr<const Warehouse::AlgState>
ParallelSweepWarehouse::SaveAlgState() const {
  Saved s;
  s.active = active_;
  s.compensations = compensations_;
  return std::make_shared<TypedAlgState<Saved>>(std::move(s));
}

void ParallelSweepWarehouse::RestoreAlgState(const AlgState& state) {
  const Saved& s = AlgStateAs<Saved>(state);
  active_ = s.active;
  compensations_ = s.compensations;
}

void ParallelSweepWarehouse::CaptureUndoAlgState(UndoLog& undo) {
  undo.CaptureValue(&active_,
                    {"ParallelSweepWarehouse", "active_", site_id()});
  undo.CaptureValue(&compensations_,
                    {"ParallelSweepWarehouse", "compensations_", site_id()});
}

void ParallelSweepWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  auto write_side = [&w](const Side& side) {
    w.WriteBool(side.extend_left);
    w.WritePartialDelta(side.dv);
    w.WritePartialDelta(side.temp);
    w.WriteI32(side.j);
    w.WriteBool(side.done);
    w.WriteI64(side.outstanding_query);
  };
  w.WriteBool(active_.has_value());
  if (active_.has_value()) {
    w.WriteI64(active_->update_id);
    w.WriteI32(active_->update_source);
    write_side(active_->left);
    write_side(active_->right);
  }
  w.WriteI64(compensations_);
}

void ParallelSweepWarehouse::DeserializeAlgState(CheckpointReader& r) {
  auto read_side = [&r]() {
    Side side;
    side.extend_left = r.ReadBool();
    side.dv = r.ReadPartialDelta();
    side.temp = r.ReadPartialDelta();
    side.j = r.ReadI32();
    side.done = r.ReadBool();
    side.outstanding_query = r.ReadI64();
    return side;
  };
  active_.reset();
  if (r.ReadBool()) {
    ActiveSweep active;
    active.update_id = r.ReadI64();
    active.update_source = r.ReadI32();
    active.left = read_side();
    active.right = read_side();
    active_ = std::move(active);
  }
  compensations_ = r.ReadI64();
}

}  // namespace sweepmv
