// Warehouse base: shared infrastructure of every maintenance algorithm.
//
// Figure 4's DataWarehouse module splits into two concerns. This class
// provides the algorithm-independent half:
//   * the LogUpdates process — arriving UpdateMessages are appended to the
//     UpdateMessageQueue and timestamped (the arrival order *defines* the
//     total order complete consistency must preserve);
//   * the materialized view with multiplicity counts, and an install log
//     recording, for every view transition, which update ids it
//     incorporated (instrumentation for the consistency checker);
//   * query plumbing toward the sources.
// Subclasses implement the UpdateView / ViewChange logic of a specific
// algorithm as an event-driven state machine.
//
// Robustness (docs/fault_model.md): the base class also makes the
// warehouse idempotent under at-least-once delivery — duplicate update
// notifications (e.g. a restarted source replaying its committed log) are
// discarded by id before they reach the queue, answers to queries that
// are no longer outstanding are dropped before they reach the algorithm,
// and an optional timeout re-issues unanswered queries verbatim so a
// source crash cannot wedge a sweep.

#ifndef SWEEPMV_CORE_WAREHOUSE_H_
#define SWEEPMV_CORE_WAREHOUSE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/state.h"
#include "common/undo.h"
#include "core/checkpoint.h"
#include "relational/partial_delta.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "sim/site.h"
#include "source/update.h"

namespace sweepmv {

// One view transition.
struct InstallRecord {
  SimTime time = 0;
  // Updates newly incorporated by this transition (empty only for the
  // recompute baseline's absolute installs, which list ids separately).
  std::vector<int64_t> update_ids;
  // Snapshot of the view after the transition.
  Relation view_after;
  // True if the view held a negative count after the install — a
  // correctness red flag the checker also looks at.
  bool negative_counts = false;

  bool operator==(const InstallRecord&) const = default;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("time", self.time);
    v.Protocol("update_ids", self.update_ids);
    v.Protocol("view_after", self.view_after);
    v.Protocol("negative_counts", self.negative_counts);
  }
};

class Warehouse : public Site {
 public:
  struct Options {
    // Record a full view snapshot per install (consistency checking).
    // Disable for large throughput benches.
    bool log_installs = true;
    // When > 0: an outstanding query unanswered for this many ticks is
    // re-issued verbatim (same query_id — sources answer idempotently and
    // stale/duplicate answers are discarded here), under capped
    // exponential backoff with deterministic per-(query, attempt) jitter
    // (see Warehouse::BackoffDelay). Heals queries lost to a source
    // crash. 0 disables the timer entirely (no behavioural or
    // event-count change).
    SimTime query_timeout = 0;
    // Re-issue attempts per query before giving up.
    int query_retry_limit = 8;
    // Backoff ceiling as a multiple of query_timeout: attempt n waits
    // min(query_timeout * 2^(n-1), query_timeout * cap) plus jitter.
    int query_backoff_cap = 16;
    // Durability (docs/fault_model.md §6). When > 0 the warehouse keeps
    // an in-sim durable store — a serialized checkpoint of the full
    // protocol state plus a WAL of post-checkpoint update messages — and
    // cuts a fresh checkpoint once the WAL holds this many updates.
    // Crash/recovery requires it; 0 (the default) keeps the warehouse
    // volatile with zero overhead.
    int checkpoint_every = 0;
    // Discard query answers stamped with a recovery epoch other than the
    // current one. This is what makes recovery sound in the presence of
    // in-flight pre-crash answers; the switch exists only so the
    // explorer's negative scenario can demonstrate the anomaly
    // (verify/scenarios.h). Never disable it otherwise.
    bool filter_stale_epochs = true;
    // Duplicate-update detection strategy. True (the default) assumes
    // each relation's update notifications arrive in id order — which
    // holds on pristine links and on faulty links under the session
    // layer, since ids are assigned in source commit order, crash
    // replays resend the log in order, and delivery is FIFO per link.
    // Dedup state is then one high-water id per relation (bounded
    // forever) instead of a grow-only id set: an arriving id at or below
    // its relation's watermark was, by the FIFO argument, already
    // delivered — the cumulative-ack reasoning of the session layer
    // lifted to update ids. Set false only when updates can genuinely
    // reorder (faulty links with the reliability layer disabled); the
    // warehouse then falls back to remembering every id.
    bool fifo_update_streams = true;
    // --- Sharded operation (src/shard/, docs/sharding.md) ---------------
    // A sharded deployment runs several Warehouse instances over the same
    // update stream, each owning a disjoint slice of it. Every shard sees
    // every update (the router broadcasts in arrival order, so queue
    // compensation still observes all interfering updates), but only the
    // owner runs a sweep and installs the delta; foreign updates are
    // discarded when they reach the queue head with no sweep active.
    // `shard_of` maps an update to its owning shard index; null (the
    // default) means "own everything" — bit-for-bit the unsharded
    // behaviour.
    int shard_index = 0;
    std::function<int(const Update&)> shard_of;
    // Query-id striping: shard s draws ids s, s+stride, 2*stride+s, ...
    // so ids are disjoint across shards and the router can route a
    // QueryAnswer back to its shard as query_id % stride. The defaults
    // (0, 1) reproduce the unsharded sequence 0, 1, 2, ...
    int64_t query_id_origin = 0;
    int64_t query_id_stride = 1;
  };

  // `source_sites[r]` is the site id serving queries for relation r (all
  // entries alias the same site for ECA's single-source architecture).
  Warehouse(int site_id, ViewDef view_def, Network* network,
            std::vector<int> source_sites, Options options);

  ~Warehouse() override = default;

  // Sets the initial materialized view ("V is initialized to the correct
  // value", Figure 4). Must be called before any update arrives.
  void InitializeView(Relation initial_view);

  // Algorithm-specific initial state derived from the initial base
  // relations (e.g. the Strobe family's full-span key-preserving view).
  // Called by the scenario harness right after InitializeView.
  virtual void InitializeAuxiliary(
      const std::vector<Relation>& initial_bases) {
    (void)initial_bases;
  }

  void OnMessage(int from, Message msg) final;

  // True while the warehouse has in-flight work beyond queued updates
  // (outstanding queries, an active sweep, a pending action list...).
  virtual bool Busy() const = 0;

  // Algorithm name for reports.
  virtual std::string name() const = 0;

  const ViewDef& view_def() const { return view_def_; }
  const Relation& view() const { return view_; }
  const std::deque<Update>& update_queue() const { return queue_; }
  const std::vector<InstallRecord>& install_log() const { return installs_; }

  // Delivery log: (update id, arrival time) in warehouse arrival order.
  const std::vector<std::pair<int64_t, SimTime>>& arrival_log() const {
    return arrival_log_;
  }

  // Observer invoked on every view transition with the signed view delta
  // and the ids it incorporated — the hook downstream incremental
  // consumers (e.g. MaintainedAggregate) attach to.
  using InstallObserver = std::function<void(
      const Relation& view_delta, const std::vector<int64_t>& ids)>;
  void SetInstallObserver(InstallObserver observer) {
    observer_ = std::move(observer);
  }

  int64_t updates_received() const {
    return static_cast<int64_t>(arrival_log_.size());
  }
  int64_t updates_incorporated() const { return updates_incorporated_; }
  int64_t queries_sent() const { return queries_sent_; }
  // Robustness counters: redundant update notifications discarded (crash
  // replays / at-least-once delivery), answers for no-longer-outstanding
  // queries discarded, and queries re-issued after a timeout.
  int64_t duplicate_updates_ignored() const {
    return duplicate_updates_ignored_;
  }
  int64_t stale_answers_ignored() const { return stale_answers_ignored_; }
  int64_t queries_reissued() const { return queries_reissued_; }
  // Sharding counters: updates another shard owned, discarded at the
  // queue head without maintenance here. (id, discard time) pairs in
  // discard order — the cross-shard checker merges these with the
  // install log to recover each shard's per-relation retire order.
  int64_t foreign_updates_discarded() const {
    return foreign_updates_discarded_;
  }
  const std::vector<std::pair<int64_t, SimTime>>& foreign_skip_log() const {
    return foreign_skip_log_;
  }
  // (update id, install time) per incorporated update, kept even with
  // log_installs off — the lightweight trace staleness percentiles are
  // computed from at bench scale (the full InstallRecord log would hold
  // a view snapshot per transition).
  const std::vector<std::pair<int64_t, SimTime>>& install_time_log() const {
    return install_time_log_;
  }

  // --- Crash/recovery (docs/fault_model.md §6) --------------------------
  //
  // The warehouse is fail-stop like the sources: a crash loses all
  // volatile state; recovery rebuilds it from the durable store (the last
  // checkpoint plus the update WAL) instead of recomputing the view, then
  // re-issues every restored in-flight query stamped with a bumped
  // recovery epoch so answers addressed to the dead incarnation are
  // discarded on arrival. Requires Options::checkpoint_every > 0.

  // Harness-mode fail-stop: the site goes dark (network drops traffic to
  // and from it) until Restart(). Messages sent during the downtime are
  // healed by the session layer, so this is only sound on faulty links
  // with reliability enabled — the harness CHECKs that wiring.
  void Crash();
  // Returns under a new incarnation and runs recovery.
  void Restart();
  // Controlled-mode atomic crash+recovery in one explorable event. The
  // network is deliberately untouched: pre-crash messages stay in flight
  // on their FIFO channels, which is exactly the stale-answer hazard the
  // recovery epoch neutralizes (the explorer certifies this).
  void CrashAndRecover();

  bool crashed() const { return crashed_; }
  int64_t epoch() const { return epoch_; }
  // Recovery instrumentation: completed recoveries, WAL updates replayed
  // through the normal arrival path (the recovery-beats-recompute bench
  // metric), checkpoints cut, the largest checkpoint in bytes, answers
  // discarded for carrying a dead incarnation's epoch, and the maximum
  // send attempts any single query needed (1 = no re-issue ever).
  int64_t recoveries() const { return recoveries_; }
  int64_t wal_replayed() const { return wal_replayed_; }
  int64_t checkpoints_taken() const { return checkpoints_taken_; }
  int64_t checkpoint_bytes_max() const { return checkpoint_bytes_max_; }
  int64_t pre_epoch_answers_ignored() const {
    return pre_epoch_answers_ignored_;
  }
  int64_t max_query_attempts() const { return max_query_attempts_; }

  // The serialized-protocol-state half of the durable store; public so
  // tests can round-trip it. Derived from the state list below: every
  // Protocol and Log member, the warehouse's and then the algorithm's.
  std::string SerializeCheckpoint() const;
  void RestoreFromCheckpoint(const std::string& bytes);

  // Entries of duplicate-detection state that can still grow with the run
  // (the fallback id set; the per-relation watermarks are fixed-size and
  // not counted). Stays 0 under fifo_update_streams — the bound the
  // chaos tests assert.
  size_t dedup_state_size() const { return seen_update_ids_.size(); }

  // Installs the undo log the mutation entry points capture into (see
  // common/undo.h). Null detaches.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h). Snapshot, undo, checkpoint and
  // fingerprint all derive from it; the algorithm's own list follows
  // through VisitAlgState. The append-only logs are Log members: undo
  // truncates them, except on the crash/recovery path, which rebuilds
  // them from the checkpoint. The durable store and the recovery
  // machinery's instrumentation are Durable: they survive a crash by
  // definition, so a checkpoint captures the protocol state, not the
  // substrate it is stored in or the counters that report on it.
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Fixed("view_def_", self.view_def_);
    v.Fixed("network_", self.network_);
    v.Fixed("source_sites_", self.source_sites_);
    v.Fixed("options_", self.options_);
    v.Protocol("view_", self.view_);
    v.Protocol("queue_", self.queue_);
    v.Log("arrival_log_", self.arrival_log_);
    v.Log("installs_", self.installs_);
    v.Protocol("updates_incorporated_", self.updates_incorporated_);
    v.Protocol("queries_sent_", self.queries_sent_);
    v.Protocol("next_query_id_", self.next_query_id_);
    v.Protocol("update_watermarks_", self.update_watermarks_);
    v.Protocol("seen_update_ids_", self.seen_update_ids_);
    v.Protocol("pending_queries_", self.pending_queries_);
    v.Protocol("duplicate_updates_ignored_",
               self.duplicate_updates_ignored_);
    v.Protocol("stale_answers_ignored_", self.stale_answers_ignored_);
    v.Protocol("queries_reissued_", self.queries_reissued_);
    v.Log("foreign_skip_log_", self.foreign_skip_log_);
    v.Protocol("foreign_updates_discarded_",
               self.foreign_updates_discarded_);
    v.Log("install_time_log_", self.install_time_log_);
    v.Durable("durable_checkpoint_", self.durable_checkpoint_);
    v.Durable("durable_wal_", self.durable_wal_);
    v.Durable("durable_epoch_", self.durable_epoch_);
    v.Durable("epoch_", self.epoch_);
    v.Durable("crashed_", self.crashed_);
    v.Durable("recovering_", self.recovering_);
    v.Durable("timer_gen_", self.timer_gen_);
    v.Durable("recoveries_", self.recoveries_);
    v.Durable("wal_replayed_", self.wal_replayed_);
    v.Durable("checkpoints_taken_", self.checkpoints_taken_);
    v.Durable("checkpoint_bytes_max_", self.checkpoint_bytes_max_);
    v.Durable("pre_epoch_answers_ignored_",
              self.pre_epoch_answers_ignored_);
    v.Durable("max_query_attempts_", self.max_query_attempts_);
    v.Fixed("observer_", self.observer_);
    v.Fixed("undo_", self.undo_);
    self.VisitAlgState(v);
  }

 protected:
  // The visitors that cross into an algorithm's list, by constness.
  using AlgVisitor = AnyStateVisitor<StateRestorer, UndoCapture,
                                     StateDecoder<CheckpointReader>>;
  using ConstAlgVisitor =
      AnyStateVisitor<StateSaver, StateEncoder<CheckpointWriter>>;

  // The algorithm half of the state list. Every maintenance algorithm
  // overrides both with `v.Visit(*this, "ClassName")`, which visits its
  // own VisitState (the name labels undo effect atoms); the defaults fail
  // loudly so a new algorithm cannot silently explore or recover with
  // half its state.
  virtual void VisitAlgState(const AlgVisitor& v);
  virtual void VisitAlgState(const ConstAlgVisitor& v) const;

  // Invoked after an update was appended to the queue.
  virtual void HandleUpdateArrival() = 0;
  virtual void HandleQueryAnswer(QueryAnswer answer);
  virtual void HandleEcaAnswer(EcaQueryAnswer answer);
  virtual void HandleSnapshotAnswer(SnapshotAnswer answer);

  // Sends a sweep-style incremental query asking the source of
  // `target_rel` to widen `partial` on the given side. Returns the query
  // id.
  int64_t SendSweepQuery(int target_rel, bool extend_left,
                         PartialDelta partial);

  // Sends an ECA signed-term query to the (single) source site.
  int64_t SendEcaQuery(std::vector<EcaTerm> terms);

  // Asks the source of `target_rel` for a full snapshot (recompute
  // baseline).
  int64_t SendSnapshotRequest(int target_rel);

  // Merges `view_delta` (over the view's output schema) into the
  // materialized view and logs the transition. The delta's entries are
  // spliced into the view, so callers move their finished delta in.
  void InstallViewDelta(Relation view_delta, std::vector<int64_t> update_ids);

  // Replaces the view wholesale (recompute baseline) and logs.
  void InstallAbsoluteView(Relation new_view,
                           std::vector<int64_t> update_ids);

  // Merges every queued update of relation `rel` into one delta (the
  // paper's "multiple interfering updates ... merged into a single ΔRj").
  Relation MergedQueueDeltaFor(int rel) const;

  // True if this warehouse is responsible for maintaining the view
  // against `update` (always true unless Options::shard_of is set).
  bool OwnsUpdate(const Update& update) const {
    // sweeplint:allow effect-bounds shard_of is a pure content hash fixed
    // at wiring time (shard/router.cc); it reads no mutable state.
    return !options_.shard_of ||
           options_.shard_of(update) == options_.shard_index;
  }

  // Pops foreign updates off the queue head, logging each discard. Only
  // legal while no sweep is active: a running sweep's compensation needs
  // every queued interfering update, owned or not, so algorithms call
  // this exactly at the start-next-sweep decision point.
  void DiscardForeignQueueHead();

  std::deque<Update>& mutable_queue() { return queue_; }
  Network* network() { return network_; }
  int site_id() const { return site_id_; }
  int source_site(int rel) const;

 private:
  // Bookkeeping for idempotent query re-issue: remembers the request and
  // its target site until the answer arrives. The request copy is always
  // kept, whatever the options: timeout re-issue, recovery's re-issue of
  // restored in-flight queries, SerializeCheckpoint and the explorer's
  // state fingerprint all read it. Snapshot requests to a multi-relation
  // site are answered by several SnapshotAnswers sharing the query id
  // (one per hosted relation); such a query stays pending until every
  // expected relation has answered, and `relations_seen` detects
  // re-delivered parts when a re-issue races the original answers.
  struct PendingQuery {
    Message request;
    int target_site = -1;
    int attempts = 1;
    int expected_answers = 1;
    std::unordered_set<int> relations_seen;

    bool operator==(const PendingQuery&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("request", self.request);
      v.Protocol("target_site", self.target_site);
      v.Protocol("attempts", self.attempts);
      v.Protocol("expected_answers", self.expected_answers);
      v.Protocol("relations_seen", self.relations_seen);
    }
  };

  // Records the state list into the attached undo log; called at the top
  // of every mutation entry point. `full` eras (the crash/recovery path,
  // whose RestoreFromCheckpoint clears and rebuilds the logs) capture the
  // logs by value instead of by tail. The durable store is always
  // value-captured: TakeCheckpoint truncates the WAL mid-event.
  void CaptureUndo(bool full);

  void RecordInstall(std::vector<int64_t> update_ids);

  // Draws the next query id under the shard stripe (origin + n * stride).
  int64_t NextQueryId() {
    int64_t id = next_query_id_;
    next_query_id_ += options_.query_id_stride;
    return id;
  }

  // Stores `request` as the query's pending copy (the only one kept; the
  // sender transmits its own).
  void RegisterQuery(int64_t query_id, int target_site, Message request,
                     int expected_answers = 1);
  // Removes the entry; false if the id is not outstanding (stale answer).
  bool ResolveQuery(int64_t query_id);
  // Consumes one relation's part of a multi-answer snapshot query; false
  // if the id is not outstanding or this relation already answered.
  bool ResolveSnapshotPart(int64_t query_id, int relation);
  void ArmQueryTimer(int64_t query_id);
  // Delay before re-issue attempt `attempt` of `query_id`: capped
  // exponential backoff plus deterministic jitter.
  SimTime BackoffDelay(int64_t query_id, int attempt) const;

  // --- Durability internals ---------------------------------------------
  bool DurabilityOn() const { return options_.checkpoint_every > 0; }
  // The shared arrival path: dedup, WAL append, queue, algorithm dispatch
  // and checkpoint cadence. Both live deliveries and recovery's WAL
  // replay flow through it (recovering_ suppresses the WAL/checkpoint
  // steps during the replay itself).
  void AcceptUpdate(UpdateMessage update);
  // Serializes the full protocol state into durable_.checkpoint and
  // truncates the WAL.
  void TakeCheckpoint();
  // Rebuilds volatile state from the durable store: bump the epoch,
  // restore the last checkpoint, re-issue restored in-flight queries
  // under the new epoch, replay the WAL.
  void Recover();
  // Overwrites the epoch stamp of a stored query request.
  static void StampEpoch(Message* request, int64_t epoch);

  int site_id_;
  ViewDef view_def_;
  Network* network_;
  // Topology: which sites host the base relations.
  std::vector<int> source_sites_;
  Options options_;

  Relation view_;
  std::deque<Update> queue_;
  std::vector<std::pair<int64_t, SimTime>> arrival_log_;
  std::vector<InstallRecord> installs_;
  int64_t updates_incorporated_ = 0;
  int64_t queries_sent_ = 0;
  int64_t next_query_id_ = 0;
  // True if the arriving update is a redundant notification; records it
  // as seen otherwise. Watermark-based under fifo_update_streams,
  // id-set-based otherwise.
  bool IsDuplicateUpdate(const Update& update);
  // Highest update id seen per relation (-1 = none); the bounded dedup
  // state under fifo_update_streams.
  std::vector<int64_t> update_watermarks_;
  // Fallback dedup state when update streams may reorder.
  std::unordered_set<int64_t> seen_update_ids_;
  std::map<int64_t, PendingQuery> pending_queries_;
  int64_t duplicate_updates_ignored_ = 0;
  int64_t stale_answers_ignored_ = 0;
  int64_t queries_reissued_ = 0;
  // Sharding: (id, time) of foreign updates discarded at the queue head,
  // and their count (equal to the log's size, kept separately so the
  // counter survives a hypothetical log trim).
  std::vector<std::pair<int64_t, SimTime>> foreign_skip_log_;
  int64_t foreign_updates_discarded_ = 0;
  // (id, install time) per incorporated update; see install_time_log().
  std::vector<std::pair<int64_t, SimTime>> install_time_log_;
  // The in-sim durable store: what survives a warehouse crash. The
  // checkpoint is cut lazily before the first arrival, then re-cut every
  // checkpoint_every WAL appends; the WAL holds the updates accepted
  // since, and durable_epoch_ the incarnation count, which must survive
  // repeated crashes.
  std::string durable_checkpoint_;
  std::vector<Update> durable_wal_;
  int64_t durable_epoch_ = 0;
  // Current incarnation: stamped on every outgoing query, bumped by
  // Recover(). Always equals durable_epoch_ between events.
  int64_t epoch_ = 0;
  // Harness-mode fail-stop flag (controlled-mode recovery never sets it).
  bool crashed_ = false;
  // True only inside Recover()'s WAL replay.
  bool recovering_ = false;
  // Bumped on recovery so query timers armed by a dead incarnation
  // disarm themselves.
  int64_t timer_gen_ = 0;
  int64_t recoveries_ = 0;
  int64_t wal_replayed_ = 0;
  int64_t checkpoints_taken_ = 0;
  int64_t checkpoint_bytes_max_ = 0;
  int64_t pre_epoch_answers_ignored_ = 0;
  int64_t max_query_attempts_ = 0;
  // Observer hook owned by the harness; consumers that accumulate state
  // from it (e.g. MaintainedAggregate) are outside the explored system by
  // design.
  InstallObserver observer_;
  UndoLog* undo_ = nullptr;
};

// Fingerprint leaf for the state lists (common/state.h): the checkpoint
// encoding extended by the Durable members — canonical bytes already
// (sorted unordered containers), hashed in bulk.
void HashLeaf(StateHasher& h, const char* tag, const Warehouse& w);

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_WAREHOUSE_H_
