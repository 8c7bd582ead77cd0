// BatchPipeline: source-side ingest batching.
//
// Sits between the workload and one source relation. Client updates are
// buffered and flushed as ONE source-local transaction when the buffer
// reaches a count threshold or a sim-time delay expires — so the whole
// batch commits atomically, ships as a single UpdateMessage, and is
// maintained by a single sweep. This extends Nested SWEEP's amortization
// (one answer serves many updates) end to end: the batch is merged into
// one signed delta before it ever leaves the source, and same-key
// churn inside the window (insert then delete, or repeated modifies of a
// hot key) cancels algebraically in OpsToDelta — those updates cost no
// maintenance at all.
//
// The trade is latency: a buffered update is invisible to the view until
// its batch flushes. The staleness percentiles (src/harness/stats.h)
// price that trade; bench/sweepbench reports both sides.
//
// Sharded deployments set `route_shards`: a flush then partitions the
// buffered operations by their tuples' routing hash (shard/routing.h)
// and commits one transaction per non-empty residue class, so every
// shipped update is wholly owned by one shard. Without the partition a
// batch mixes keys, its owner is effectively random, and the insert and
// the delete of the same base tuple land on different shards — their
// view deltas then sit in two fragments forever instead of cancelling,
// and fragment memory grows linearly with ingested updates. With it, a
// tuple's whole lifecycle routes identically and fragments stay near
// the size of the live view.

#ifndef SWEEPMV_SHARD_BATCH_H_
#define SWEEPMV_SHARD_BATCH_H_

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "source/data_source.h"
#include "source/update.h"

namespace sweepmv {

class ViewDef;

struct BatchOptions {
  // Flush when this many client transactions are buffered.
  int max_batch = 64;
  // Flush this long (sim ticks) after the first buffered transaction;
  // 0 disables the timer (count-threshold and explicit flushes only).
  SimTime max_delay = 0;
  // Shard-affine flushing: when > 1, each flush partitions the buffer
  // into one transaction per routing-hash residue class (mod this), so
  // updates align with shard ownership (see the file comment). Requires
  // `view`. 1 keeps the whole batch as a single transaction.
  int route_shards = 1;
  // The view whose join keys drive the routing hash; must outlive the
  // pipeline. Only read when route_shards > 1.
  const ViewDef* view = nullptr;
};

struct BatchStats {
  int64_t txns_submitted = 0;
  int64_t ops_submitted = 0;
  int64_t batches_flushed = 0;  // non-empty flushes
  int64_t flushes_by_count = 0;
  int64_t flushes_by_timer = 0;
  // Batches whose merged delta cancelled to nothing (pure churn).
  int64_t noop_batches = 0;
};

class BatchPipeline {
 public:
  // One flushed batch: the update ids it committed as (empty when the
  // merged delta cancelled to a no-op — or, under route_shards, one id
  // per residue class that survived cancellation), when, and the submit
  // time of every client transaction it carried — the accepted-at
  // timestamps the staleness metric measures from. A batch's changes
  // are fully visible once the LAST of its updates installs, so
  // staleness attributes every carried submit to that final install.
  struct FlushRecord {
    std::vector<int64_t> update_ids;
    SimTime flushed_at = 0;
    std::vector<SimTime> submit_times;
  };

  BatchPipeline(DataSource* source, int relation, Simulator* sim,
                BatchOptions options);

  // Buffers one client transaction (submit time = now). May flush
  // synchronously when the count threshold is reached.
  void Submit(std::vector<UpdateOp> ops);

  // Flushes the buffer as one transaction; no-op when empty. The harness
  // calls this once after the last scheduled submit so no update is
  // stranded in a partial batch.
  void Flush();

  int buffered() const { return static_cast<int>(pending_.size()); }
  const BatchStats& stats() const { return stats_; }
  const std::vector<FlushRecord>& flush_log() const { return flush_log_; }

 private:
  void ArmTimer();

  DataSource* source_;
  int relation_;
  Simulator* sim_;
  BatchOptions options_;
  // Join-key positions of this relation, precomputed for the per-op
  // routing hash (only used when route_shards > 1; empty also means
  // "hash the whole tuple" for single-relation views).
  std::vector<int> key_positions_;
  std::vector<UpdateOp> pending_;
  std::vector<SimTime> pending_submit_times_;
  // Number of client txns in the buffer (>= 1 op each).
  int pending_txns_ = 0;
  // Bumped per flush so a delay timer armed for an already-flushed batch
  // disarms itself.
  int64_t flush_gen_ = 0;
  BatchStats stats_;
  std::vector<FlushRecord> flush_log_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SHARD_BATCH_H_
