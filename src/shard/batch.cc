#include "shard/batch.h"

#include <utility>

#include "common/check.h"
#include "shard/routing.h"

namespace sweepmv {

BatchPipeline::BatchPipeline(DataSource* source, int relation,
                             Simulator* sim, BatchOptions options)
    : source_(source), relation_(relation), sim_(sim), options_(options) {
  SWEEP_CHECK(source_ != nullptr && sim_ != nullptr);
  SWEEP_CHECK(options_.max_batch >= 1);
  SWEEP_CHECK(options_.max_delay >= 0);
  SWEEP_CHECK(options_.route_shards >= 1);
  if (options_.route_shards > 1) {
    SWEEP_CHECK_MSG(options_.view != nullptr,
                    "shard-affine batching needs the view's join keys");
    key_positions_ = JoinKeyPositions(*options_.view, relation_);
  }
}

void BatchPipeline::Submit(std::vector<UpdateOp> ops) {
  SWEEP_CHECK_MSG(!ops.empty(), "empty transaction submitted to pipeline");
  const bool was_empty = pending_txns_ == 0;
  ++stats_.txns_submitted;
  stats_.ops_submitted += static_cast<int64_t>(ops.size());
  pending_submit_times_.push_back(sim_->now());
  for (UpdateOp& op : ops) pending_.push_back(std::move(op));
  ++pending_txns_;
  if (pending_txns_ >= options_.max_batch) {
    ++stats_.flushes_by_count;
    Flush();
    return;
  }
  if (was_empty && options_.max_delay > 0) ArmTimer();
}

void BatchPipeline::ArmTimer() {
  const int64_t gen = flush_gen_;
  sim_->Schedule(options_.max_delay, [this, gen]() {
    if (gen != flush_gen_) return;  // batch already flushed
    ++stats_.flushes_by_timer;
    Flush();
  });
}

void BatchPipeline::Flush() {
  ++flush_gen_;
  if (pending_txns_ == 0) return;
  FlushRecord record;
  record.flushed_at = sim_->now();
  record.submit_times = std::move(pending_submit_times_);
  if (options_.route_shards <= 1) {
    // One ApplyTxn commits the whole window atomically: OpsToDelta
    // merges the concatenated operations into a single signed delta,
    // cancelling same-key churn, and the source ships at most one
    // UpdateMessage.
    const int64_t id = source_->ApplyTxn(relation_, pending_);
    if (id >= 0) record.update_ids.push_back(id);
  } else {
    // Shard-affine: one transaction per routing-hash residue class, in
    // class order (deterministic). Every tuple of class s hashes to
    // residue s, so OwnerShard assigns the resulting update to shard s
    // — see the min-combine argument in shard/routing.h.
    std::vector<std::vector<UpdateOp>> classes(
        static_cast<size_t>(options_.route_shards));
    for (UpdateOp& op : pending_) {
      const uint64_t h = RoutingHashTuple(key_positions_, op.tuple);
      classes[static_cast<size_t>(
                  h % static_cast<uint64_t>(options_.route_shards))]
          .push_back(std::move(op));
    }
    for (std::vector<UpdateOp>& ops : classes) {
      if (ops.empty()) continue;
      const int64_t id = source_->ApplyTxn(relation_, ops);
      if (id >= 0) record.update_ids.push_back(id);
    }
  }
  // Every class cancelled to nothing (pure churn), or the source is
  // crashed and refused the window — either way the batch is gone; its
  // submits count against the flush time, not an install.
  if (record.update_ids.empty()) {
    ++stats_.noop_batches;
  } else {
    ++stats_.batches_flushed;
  }
  pending_.clear();
  pending_submit_times_.clear();
  pending_txns_ = 0;
  flush_log_.push_back(std::move(record));
}

}  // namespace sweepmv
