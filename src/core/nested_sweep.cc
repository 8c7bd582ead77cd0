#include "core/nested_sweep.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

NestedSweepWarehouse::NestedSweepWarehouse(int site_id, ViewDef view_def,
                                           Network* network,
                                           std::vector<int> source_sites,
                                           NestedOptions options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options.base),
      options_(options) {
  SWEEP_CHECK(options_.max_recursion_depth >= 1);
}

void NestedSweepWarehouse::HandleUpdateArrival() { MaybeStartNext(); }

void NestedSweepWarehouse::MaybeStartNext() {
  if (!stack_.empty() || mutable_queue().empty()) return;

  Update update = std::move(mutable_queue().front());
  mutable_queue().pop_front();

  batch_ids_ = {update.id};
  Frame root;
  root.left = 0;
  root.src = update.relation;
  root.right = view_def().num_relations() - 1;
  root.dv = PartialDelta::ForRelation(view_def(), update.relation,
                                      std::move(update.delta));
  root.left_phase = true;
  root.j = root.src - 1;
  stack_.push_back(std::move(root));
  max_depth_seen_ = std::max(max_depth_seen_, 1);
  SWEEP_LOG(Debug) << "NestedSWEEP starts root ViewChange for u"
                   << batch_ids_.front();
  Advance();
}

void NestedSweepWarehouse::Advance() {
  SWEEP_CHECK(!stack_.empty());
  Frame& frame = stack_.back();

  if (frame.left_phase && frame.j < frame.left) {
    frame.left_phase = false;
    frame.j = frame.src + 1;
  }
  if (!frame.left_phase && frame.j > frame.right) {
    CompleteTopFrame();
    return;
  }

  // As in SWEEP: `dv` is dead while the query is in flight, so the
  // pre-send partial lives only in `temp` and the query payload.
  frame.temp = std::move(frame.dv);
  frame.dv = PartialDelta();
  frame.outstanding_query = SendSweepQuery(
      frame.j, /*extend_left=*/frame.left_phase, frame.temp);
}

void NestedSweepWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  SWEEP_CHECK(!stack_.empty());
  Frame& frame = stack_.back();
  SWEEP_CHECK_MSG(answer.query_id == frame.outstanding_query,
                  "answer does not match the outstanding query");
  frame.outstanding_query = -1;
  frame.dv = std::move(answer.partial);

  const int detected_at = frame.j;
  const bool was_left_phase = frame.left_phase;
  const int frame_left = frame.left;
  const int frame_src = frame.src;

  // Compensate exactly as SWEEP does (on-line error correction)...
  Relation interfering = MergedQueueDeltaFor(detected_at);
  bool spawn_child = false;
  if (!interfering.Empty()) {
    PartialDelta error =
        was_left_phase ? ExtendLeft(view_def(), interfering, frame.temp)
                       : ExtendRight(view_def(), frame.temp, interfering);
    frame.dv.rel.MergeNegated(error.rel);
    ++compensations_;

    // ... then, budget permitting, fold the concurrent update(s) into the
    // composite delta via a recursive ViewChange instead of deferring.
    if (static_cast<int>(stack_.size()) < options_.max_recursion_depth) {
      spawn_child = true;
    } else {
      ++forced_deferrals_;
      SWEEP_LOG(Debug) << "NestedSWEEP recursion budget hit; deferring ΔR"
                       << detected_at;
    }
  }

  // The frame resumes at the next position once any child completes.
  frame.j += was_left_phase ? -1 : 1;

  if (spawn_child) {
    // Remove the incorporated update(s) from the queue.
    auto& queue = mutable_queue();
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->relation == detected_at) {
        batch_ids_.push_back(it->id);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }

    Frame child;
    if (was_left_phase) {
      // ViewChange(ΔR_j, j, j, UpdateSource): right sweep j+1..src.
      child.left = detected_at;
      child.src = detected_at;
      child.right = frame_src;
    } else {
      // ViewChange(ΔR_j, Left, j, j): left sweep j-1..Left.
      child.left = frame_left;
      child.src = detected_at;
      child.right = detected_at;
    }
    child.dv = PartialDelta::ForRelation(view_def(), detected_at,
                                         std::move(interfering));
    child.left_phase = true;
    child.j = child.src - 1;
    stack_.push_back(std::move(child));  // invalidates `frame`
    ++nested_calls_;
    max_depth_seen_ =
        std::max(max_depth_seen_, static_cast<int>(stack_.size()));
    SWEEP_LOG(Debug) << "NestedSWEEP recurses on ΔR" << detected_at
                     << " (depth " << stack_.size() << ")";
  }

  Advance();
}

void NestedSweepWarehouse::CompleteTopFrame() {
  SWEEP_CHECK(!stack_.empty());
  Frame done = std::move(stack_.back());
  stack_.pop_back();

  if (stack_.empty()) {
    SWEEP_CHECK(done.dv.SpansAll(view_def()));
    InstallViewDelta(view_def().FinishFullSpan(std::move(done.dv.rel)),
                     std::move(batch_ids_));
    batch_ids_.clear();
    MaybeStartNext();
    return;
  }

  // Fold the nested result into the suspended parent: both deltas span the
  // same relation range by construction.
  Frame& parent = stack_.back();
  SWEEP_CHECK(done.dv.lo == parent.dv.lo && done.dv.hi == parent.dv.hi);
  parent.dv.rel.Merge(std::move(done.dv.rel));
  Advance();
}

std::shared_ptr<const Warehouse::AlgState>
NestedSweepWarehouse::SaveAlgState() const {
  Saved s;
  s.stack = stack_;
  s.batch_ids = batch_ids_;
  s.compensations = compensations_;
  s.nested_calls = nested_calls_;
  s.forced_deferrals = forced_deferrals_;
  s.max_depth_seen = max_depth_seen_;
  return std::make_shared<TypedAlgState<Saved>>(std::move(s));
}

void NestedSweepWarehouse::RestoreAlgState(const AlgState& state) {
  const Saved& s = AlgStateAs<Saved>(state);
  stack_ = s.stack;
  batch_ids_ = s.batch_ids;
  compensations_ = s.compensations;
  nested_calls_ = s.nested_calls;
  forced_deferrals_ = s.forced_deferrals;
  max_depth_seen_ = s.max_depth_seen;
}

void NestedSweepWarehouse::CaptureUndoAlgState(UndoLog& undo) {
  undo.CaptureValue(&stack_, {"NestedSweepWarehouse", "stack_", site_id()});
  undo.CaptureValue(&batch_ids_,
                    {"NestedSweepWarehouse", "batch_ids_", site_id()});
  undo.CaptureValue(&compensations_,
                    {"NestedSweepWarehouse", "compensations_", site_id()});
  undo.CaptureValue(&nested_calls_,
                    {"NestedSweepWarehouse", "nested_calls_", site_id()});
  undo.CaptureValue(&forced_deferrals_,
                    {"NestedSweepWarehouse", "forced_deferrals_", site_id()});
  undo.CaptureValue(&max_depth_seen_,
                    {"NestedSweepWarehouse", "max_depth_seen_", site_id()});
}

void NestedSweepWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  w.WriteI64(static_cast<int64_t>(stack_.size()));
  for (const Frame& frame : stack_) {
    w.WriteI32(frame.left);
    w.WriteI32(frame.src);
    w.WriteI32(frame.right);
    w.WritePartialDelta(frame.dv);
    w.WritePartialDelta(frame.temp);
    w.WriteBool(frame.left_phase);
    w.WriteI32(frame.j);
    w.WriteI64(frame.outstanding_query);
  }
  w.WriteI64(static_cast<int64_t>(batch_ids_.size()));
  for (int64_t id : batch_ids_) w.WriteI64(id);
  w.WriteI64(compensations_);
  w.WriteI64(nested_calls_);
  w.WriteI64(forced_deferrals_);
  w.WriteI32(max_depth_seen_);
}

void NestedSweepWarehouse::DeserializeAlgState(CheckpointReader& r) {
  stack_.clear();
  const int64_t frames = r.ReadI64();
  for (int64_t i = 0; i < frames; ++i) {
    Frame frame;
    frame.left = r.ReadI32();
    frame.src = r.ReadI32();
    frame.right = r.ReadI32();
    frame.dv = r.ReadPartialDelta();
    frame.temp = r.ReadPartialDelta();
    frame.left_phase = r.ReadBool();
    frame.j = r.ReadI32();
    frame.outstanding_query = r.ReadI64();
    stack_.push_back(std::move(frame));
  }
  batch_ids_.clear();
  const int64_t ids = r.ReadI64();
  for (int64_t i = 0; i < ids; ++i) batch_ids_.push_back(r.ReadI64());
  compensations_ = r.ReadI64();
  nested_calls_ = r.ReadI64();
  forced_deferrals_ = r.ReadI64();
  max_depth_seen_ = r.ReadI32();
}

}  // namespace sweepmv
