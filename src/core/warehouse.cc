#include "core/warehouse.h"

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

Warehouse::Warehouse(int site_id, ViewDef view_def, Network* network,
                     std::vector<int> source_sites, Options options)
    : site_id_(site_id),
      view_def_(std::move(view_def)),
      network_(network),
      source_sites_(std::move(source_sites)),
      options_(options),
      view_(view_def_.view_schema()),
      update_watermarks_(
          static_cast<size_t>(view_def_.num_relations()), -1) {
  SWEEP_CHECK(network != nullptr);
  SWEEP_CHECK(static_cast<int>(source_sites_.size()) ==
              view_def_.num_relations());
  SWEEP_CHECK(options_.query_id_stride >= 1);
  SWEEP_CHECK(options_.query_id_origin >= 0 &&
              options_.query_id_origin < options_.query_id_stride);
  next_query_id_ = options_.query_id_origin;
}

bool Warehouse::IsDuplicateUpdate(const Update& update) {
  if (options_.fifo_update_streams) {
    SWEEP_CHECK(update.relation >= 0 &&
                update.relation <
                    static_cast<int>(update_watermarks_.size()));
    int64_t& watermark =
        update_watermarks_[static_cast<size_t>(update.relation)];
    if (update.id <= watermark) return true;
    watermark = update.id;
    return false;
  }
  return !seen_update_ids_.insert(update.id).second;
}

void Warehouse::InitializeView(Relation initial_view) {
  SWEEP_CHECK_MSG(arrival_log_.empty() && installs_.empty(),
                  "InitializeView must precede the first update");
  view_ = std::move(initial_view);
}

void Warehouse::CaptureUndo(bool full) {
  if (undo_ == nullptr) return;
  // Effect atoms name the *declaring* class — the same resolution the
  // static effects pass uses — so the soundness oracle compares like with
  // like (src/verify/effects.h, tools/sweeplint/effects.py).
  const int s = site_id_;
  undo_->CaptureValue(&view_, {"Warehouse", "view_", s});
  undo_->CaptureValue(&queue_, {"Warehouse", "queue_", s});
  if (full) {
    // Crash/recovery clears and rebuilds the logs from the checkpoint, so
    // truncate-to-length would restore the wrong content.
    undo_->CaptureValue(&arrival_log_, {"Warehouse", "arrival_log_", s});
    undo_->CaptureValue(&installs_, {"Warehouse", "installs_", s});
    undo_->CaptureValue(&install_time_log_,
                        {"Warehouse", "install_time_log_", s});
    undo_->CaptureValue(&foreign_skip_log_,
                        {"Warehouse", "foreign_skip_log_", s});
  } else {
    undo_->CaptureTail(&arrival_log_, {"Warehouse", "arrival_log_", s});
    undo_->CaptureTail(&installs_, {"Warehouse", "installs_", s});
    undo_->CaptureTail(&install_time_log_,
                       {"Warehouse", "install_time_log_", s});
    undo_->CaptureTail(&foreign_skip_log_,
                       {"Warehouse", "foreign_skip_log_", s});
  }
  undo_->CaptureValue(&updates_incorporated_,
                      {"Warehouse", "updates_incorporated_", s});
  undo_->CaptureValue(&queries_sent_, {"Warehouse", "queries_sent_", s});
  undo_->CaptureValue(&next_query_id_, {"Warehouse", "next_query_id_", s});
  undo_->CaptureValue(&update_watermarks_,
                      {"Warehouse", "update_watermarks_", s});
  undo_->CaptureValue(&seen_update_ids_,
                      {"Warehouse", "seen_update_ids_", s});
  undo_->CaptureValue(&pending_queries_,
                      {"Warehouse", "pending_queries_", s});
  undo_->CaptureValue(&duplicate_updates_ignored_,
                      {"Warehouse", "duplicate_updates_ignored_", s});
  undo_->CaptureValue(&stale_answers_ignored_,
                      {"Warehouse", "stale_answers_ignored_", s});
  undo_->CaptureValue(&queries_reissued_,
                      {"Warehouse", "queries_reissued_", s});
  undo_->CaptureValue(&foreign_updates_discarded_,
                      {"Warehouse", "foreign_updates_discarded_", s});
  undo_->CaptureValue(&durable_checkpoint_,
                      {"Warehouse", "durable_checkpoint_", s});
  undo_->CaptureValue(&durable_wal_, {"Warehouse", "durable_wal_", s});
  undo_->CaptureValue(&durable_epoch_, {"Warehouse", "durable_epoch_", s});
  undo_->CaptureValue(&epoch_, {"Warehouse", "epoch_", s});
  undo_->CaptureValue(&crashed_, {"Warehouse", "crashed_", s});
  undo_->CaptureValue(&recovering_, {"Warehouse", "recovering_", s});
  undo_->CaptureValue(&timer_gen_, {"Warehouse", "timer_gen_", s});
  undo_->CaptureValue(&recoveries_, {"Warehouse", "recoveries_", s});
  undo_->CaptureValue(&wal_replayed_, {"Warehouse", "wal_replayed_", s});
  undo_->CaptureValue(&checkpoints_taken_,
                      {"Warehouse", "checkpoints_taken_", s});
  undo_->CaptureValue(&checkpoint_bytes_max_,
                      {"Warehouse", "checkpoint_bytes_max_", s});
  undo_->CaptureValue(&pre_epoch_answers_ignored_,
                      {"Warehouse", "pre_epoch_answers_ignored_", s});
  undo_->CaptureValue(&max_query_attempts_,
                      {"Warehouse", "max_query_attempts_", s});
  CaptureUndoAlgState(*undo_);
}

void Warehouse::CaptureUndoAlgState(UndoLog&) {
  SWEEP_CHECK_MSG(false, "this warehouse does not implement undo-log "
                         "backtracking (CaptureUndoAlgState)");
}

void Warehouse::DescribeState(StateHasher& h) const {
  h.I64("wh.site", site_id_);
  const std::string protocol = SerializeCheckpoint();
  h.Bytes("wh.protocol", protocol.data(), protocol.size());
  h.Bytes("wh.durable_ckpt", durable_checkpoint_.data(),
          durable_checkpoint_.size());
  h.U64("wh.wal", durable_wal_.size());
  for (const Update& u : durable_wal_) {
    h.I64("wal.id", u.id);
    h.I64("wal.rel", u.relation);
    h.I64("wal.at", u.applied_at);
    AbsorbRelation(h, "wal.delta", u.delta);
  }
  h.I64("wh.durable_epoch", durable_epoch_);
  h.I64("wh.epoch", epoch_);
  h.Bool("wh.crashed", crashed_);
  h.Bool("wh.recovering", recovering_);
  h.I64("wh.timer_gen", timer_gen_);
  h.I64("wh.recoveries", recoveries_);
  h.I64("wh.wal_replayed", wal_replayed_);
  h.I64("wh.checkpoints", checkpoints_taken_);
  h.I64("wh.ckpt_bytes_max", checkpoint_bytes_max_);
  h.I64("wh.pre_epoch_ignored", pre_epoch_answers_ignored_);
  h.I64("wh.max_attempts", max_query_attempts_);
}

void Warehouse::OnMessage(int from, Message msg) {
  (void)from;
  CaptureUndo(/*full=*/false);
  // Defense in depth: the network already drops deliveries to a crashed
  // site, so nothing should reach a dead warehouse.
  if (crashed_) return;
  if (auto* update = std::get_if<UpdateMessage>(&msg)) {
    AcceptUpdate(std::move(*update));
    return;
  }
  // Answers carrying a dead incarnation's epoch are discarded before the
  // pending-query bookkeeping sees them: recovery re-issued those queries
  // with the current epoch, and resolving a re-issued query with a
  // pre-crash answer would hand the restored algorithm state a result
  // computed against bases it has not caught up with (the anomaly the
  // explorer's UnfilteredRecoveryScenario demonstrates).
  if (auto* answer = std::get_if<QueryAnswer>(&msg)) {
    if (options_.filter_stale_epochs && answer->epoch != epoch_) {
      ++pre_epoch_answers_ignored_;
      SWEEP_LOG(Debug) << name() << " ignored pre-epoch answer #"
                       << answer->query_id;
      return;
    }
    if (!ResolveQuery(answer->query_id)) return;
    HandleQueryAnswer(std::move(*answer));
    return;
  }
  if (auto* answer = std::get_if<EcaQueryAnswer>(&msg)) {
    if (options_.filter_stale_epochs && answer->epoch != epoch_) {
      ++pre_epoch_answers_ignored_;
      return;
    }
    if (!ResolveQuery(answer->query_id)) return;
    HandleEcaAnswer(std::move(*answer));
    return;
  }
  if (auto* answer = std::get_if<SnapshotAnswer>(&msg)) {
    if (options_.filter_stale_epochs && answer->epoch != epoch_) {
      ++pre_epoch_answers_ignored_;
      return;
    }
    if (!ResolveSnapshotPart(answer->query_id, answer->relation)) return;
    HandleSnapshotAnswer(std::move(*answer));
    return;
  }
  SWEEP_CHECK_MSG(false, "warehouse received an unexpected message type");
}

void Warehouse::AcceptUpdate(UpdateMessage update) {
  const bool durable = DurabilityOn() && !recovering_;
  // The initial checkpoint is cut lazily, right before the first arrival
  // mutates anything: between construction and this point the only state
  // transitions were InitializeView/InitializeAuxiliary, so "no
  // checkpoint yet" always means "the checkpoint would be this state".
  if (durable && durable_checkpoint_.empty()) TakeCheckpoint();
  if (IsDuplicateUpdate(update.update)) {
    // Redundant notification — a restarted source replaying its log, or
    // at-least-once delivery without the session layer. The arrival
    // order that defines consistency is the order of *first* arrivals.
    ++duplicate_updates_ignored_;
    SWEEP_LOG(Debug) << name() << " ignored duplicate "
                     << update.update.ToDisplayString();
    return;
  }
  if (durable) durable_wal_.push_back(update.update);
  arrival_log_.emplace_back(update.update.id,
                            network_->simulator()->now());
  SWEEP_LOG(Debug) << name() << " received "
                   << update.update.ToDisplayString();
  queue_.push_back(std::move(update.update));
  HandleUpdateArrival();
  if (durable && static_cast<int>(durable_wal_.size()) >=
                     options_.checkpoint_every) {
    TakeCheckpoint();
  }
}

void Warehouse::RegisterQuery(int64_t query_id, int target_site,
                              Message request, int expected_answers) {
  PendingQuery pending;
  pending.target_site = target_site;
  pending.expected_answers = expected_answers;
  // The request copy feeds timeout re-issue, recovery's re-issue of
  // restored in-flight queries, and the checkpoint serializer (which is
  // public API and must work regardless of the options in force).
  pending.request = std::move(request);
  pending_queries_.emplace(query_id, std::move(pending));
  if (max_query_attempts_ < 1) max_query_attempts_ = 1;
  if (options_.query_timeout > 0) ArmQueryTimer(query_id);
}

bool Warehouse::ResolveQuery(int64_t query_id) {
  if (pending_queries_.erase(query_id) == 0) {
    // A duplicate answer (query re-issue raced the original answer) or an
    // answer from a dead incarnation. The first answer won; drop this one.
    ++stale_answers_ignored_;
    SWEEP_LOG(Debug) << name() << " dropped stale answer #" << query_id;
    return false;
  }
  return true;
}

bool Warehouse::ResolveSnapshotPart(int64_t query_id, int relation) {
  auto it = pending_queries_.find(query_id);
  if (it == pending_queries_.end()) {
    ++stale_answers_ignored_;
    SWEEP_LOG(Debug) << name() << " dropped stale snapshot part #"
                     << query_id << " R" << relation;
    return false;
  }
  PendingQuery& pending = it->second;
  if (!pending.relations_seen.insert(relation).second) {
    ++stale_answers_ignored_;
    SWEEP_LOG(Debug) << name() << " dropped re-delivered snapshot part #"
                     << query_id << " R" << relation;
    return false;
  }
  if (static_cast<int>(pending.relations_seen.size()) >=
      pending.expected_answers) {
    pending_queries_.erase(it);
  }
  return true;
}

Warehouse::SavedState Warehouse::SaveState() const {
  SavedState state;
  state.view = view_;
  state.queue = queue_;
  state.arrival_log = arrival_log_;
  state.installs = installs_;
  state.updates_incorporated = updates_incorporated_;
  state.queries_sent = queries_sent_;
  state.next_query_id = next_query_id_;
  state.update_watermarks = update_watermarks_;
  state.seen_update_ids = seen_update_ids_;
  state.pending_queries = pending_queries_;
  state.duplicate_updates_ignored = duplicate_updates_ignored_;
  state.stale_answers_ignored = stale_answers_ignored_;
  state.queries_reissued = queries_reissued_;
  state.foreign_skip_log = foreign_skip_log_;
  state.foreign_updates_discarded = foreign_updates_discarded_;
  state.install_time_log = install_time_log_;
  state.durable_checkpoint = durable_checkpoint_;
  state.durable_wal = durable_wal_;
  state.durable_epoch = durable_epoch_;
  state.epoch = epoch_;
  state.crashed = crashed_;
  state.recovering = recovering_;
  state.timer_gen = timer_gen_;
  state.recoveries = recoveries_;
  state.wal_replayed = wal_replayed_;
  state.checkpoints_taken = checkpoints_taken_;
  state.checkpoint_bytes_max = checkpoint_bytes_max_;
  state.pre_epoch_answers_ignored = pre_epoch_answers_ignored_;
  state.max_query_attempts = max_query_attempts_;
  state.alg = SaveAlgState();
  return state;
}

void Warehouse::RestoreState(const SavedState& state) {
  view_ = state.view;
  queue_ = state.queue;
  arrival_log_ = state.arrival_log;
  installs_ = state.installs;
  updates_incorporated_ = state.updates_incorporated;
  queries_sent_ = state.queries_sent;
  next_query_id_ = state.next_query_id;
  update_watermarks_ = state.update_watermarks;
  seen_update_ids_ = state.seen_update_ids;
  pending_queries_ = state.pending_queries;
  duplicate_updates_ignored_ = state.duplicate_updates_ignored;
  stale_answers_ignored_ = state.stale_answers_ignored;
  queries_reissued_ = state.queries_reissued;
  foreign_skip_log_ = state.foreign_skip_log;
  foreign_updates_discarded_ = state.foreign_updates_discarded;
  install_time_log_ = state.install_time_log;
  durable_checkpoint_ = state.durable_checkpoint;
  durable_wal_ = state.durable_wal;
  durable_epoch_ = state.durable_epoch;
  epoch_ = state.epoch;
  crashed_ = state.crashed;
  recovering_ = state.recovering;
  timer_gen_ = state.timer_gen;
  recoveries_ = state.recoveries;
  wal_replayed_ = state.wal_replayed;
  checkpoints_taken_ = state.checkpoints_taken;
  checkpoint_bytes_max_ = state.checkpoint_bytes_max;
  pre_epoch_answers_ignored_ = state.pre_epoch_answers_ignored;
  max_query_attempts_ = state.max_query_attempts;
  SWEEP_CHECK(state.alg != nullptr);
  RestoreAlgState(*state.alg);
}

std::shared_ptr<const Warehouse::AlgState> Warehouse::SaveAlgState() const {
  SWEEP_CHECK_MSG(false, "this warehouse does not implement snapshot/"
                         "restore (SaveAlgState)");
  return nullptr;
}

void Warehouse::RestoreAlgState(const AlgState&) {
  SWEEP_CHECK_MSG(false, "this warehouse does not implement snapshot/"
                         "restore (RestoreAlgState)");
}

void Warehouse::SerializeAlgState(CheckpointWriter&) const {
  SWEEP_CHECK_MSG(false, "this warehouse does not implement durable "
                         "checkpoints (SerializeAlgState)");
}

void Warehouse::DeserializeAlgState(CheckpointReader&) {
  SWEEP_CHECK_MSG(false, "this warehouse does not implement durable "
                         "checkpoints (DeserializeAlgState)");
}

// checkpoint-exempt: durable_checkpoint_ durable_wal_ durable_epoch_
// epoch_ crashed_ recovering_ timer_gen_ recoveries_ wal_replayed_
// checkpoints_taken_ checkpoint_bytes_max_ pre_epoch_answers_ignored_
// max_query_attempts_ — the durable store and the recovery machinery's
// instrumentation survive a crash by definition: a checkpoint captures
// the protocol state, not the substrate it is stored in or the counters
// that report on it.
std::string Warehouse::SerializeCheckpoint() const {
  CheckpointWriter w;
  w.WriteRelation(view_);
  w.WriteI64(static_cast<int64_t>(queue_.size()));
  for (const Update& u : queue_) w.WriteUpdate(u);
  w.WriteI64(static_cast<int64_t>(arrival_log_.size()));
  for (const auto& [id, at] : arrival_log_) {
    w.WriteI64(id);
    w.WriteI64(at);
  }
  w.WriteI64(static_cast<int64_t>(installs_.size()));
  for (const InstallRecord& record : installs_) {
    w.WriteI64(record.time);
    w.WriteI64(static_cast<int64_t>(record.update_ids.size()));
    for (int64_t id : record.update_ids) w.WriteI64(id);
    w.WriteRelation(record.view_after);
    w.WriteBool(record.negative_counts);
  }
  w.WriteI64(updates_incorporated_);
  w.WriteI64(queries_sent_);
  w.WriteI64(next_query_id_);
  w.WriteI64(static_cast<int64_t>(update_watermarks_.size()));
  for (int64_t mark : update_watermarks_) w.WriteI64(mark);
  // Sorted so identical states serialize to identical bytes.
  std::vector<int64_t> seen(seen_update_ids_.begin(),
                            seen_update_ids_.end());
  std::sort(seen.begin(), seen.end());
  w.WriteI64(static_cast<int64_t>(seen.size()));
  for (int64_t id : seen) w.WriteI64(id);
  w.WriteI64(static_cast<int64_t>(pending_queries_.size()));
  for (const auto& [query_id, pending] : pending_queries_) {
    w.WriteI64(query_id);
    w.WriteRequest(pending.request);
    w.WriteI32(pending.target_site);
    w.WriteI32(pending.attempts);
    w.WriteI32(pending.expected_answers);
    std::vector<int32_t> parts(pending.relations_seen.begin(),
                               pending.relations_seen.end());
    std::sort(parts.begin(), parts.end());
    w.WriteI64(static_cast<int64_t>(parts.size()));
    for (int32_t rel : parts) w.WriteI32(rel);
  }
  w.WriteI64(duplicate_updates_ignored_);
  w.WriteI64(stale_answers_ignored_);
  w.WriteI64(queries_reissued_);
  w.WriteI64(static_cast<int64_t>(foreign_skip_log_.size()));
  for (const auto& [id, at] : foreign_skip_log_) {
    w.WriteI64(id);
    w.WriteI64(at);
  }
  w.WriteI64(foreign_updates_discarded_);
  w.WriteI64(static_cast<int64_t>(install_time_log_.size()));
  for (const auto& [id, at] : install_time_log_) {
    w.WriteI64(id);
    w.WriteI64(at);
  }
  SerializeAlgState(w);
  return w.Take();
}

void Warehouse::RestoreFromCheckpoint(const std::string& bytes) {
  CheckpointReader r(bytes);
  view_ = r.ReadRelation();
  queue_.clear();
  const int64_t queued = r.ReadI64();
  for (int64_t i = 0; i < queued; ++i) queue_.push_back(r.ReadUpdate());
  arrival_log_.clear();
  const int64_t arrivals = r.ReadI64();
  for (int64_t i = 0; i < arrivals; ++i) {
    const int64_t id = r.ReadI64();
    const SimTime at = r.ReadI64();
    arrival_log_.emplace_back(id, at);
  }
  installs_.clear();
  const int64_t installed = r.ReadI64();
  for (int64_t i = 0; i < installed; ++i) {
    InstallRecord record;
    record.time = r.ReadI64();
    const int64_t ids = r.ReadI64();
    for (int64_t j = 0; j < ids; ++j) {
      record.update_ids.push_back(r.ReadI64());
    }
    record.view_after = r.ReadRelation();
    record.negative_counts = r.ReadBool();
    installs_.push_back(std::move(record));
  }
  updates_incorporated_ = r.ReadI64();
  queries_sent_ = r.ReadI64();
  next_query_id_ = r.ReadI64();
  update_watermarks_.clear();
  const int64_t marks = r.ReadI64();
  for (int64_t i = 0; i < marks; ++i) {
    update_watermarks_.push_back(r.ReadI64());
  }
  seen_update_ids_.clear();
  const int64_t seen = r.ReadI64();
  for (int64_t i = 0; i < seen; ++i) seen_update_ids_.insert(r.ReadI64());
  pending_queries_.clear();
  const int64_t pending_count = r.ReadI64();
  for (int64_t i = 0; i < pending_count; ++i) {
    const int64_t query_id = r.ReadI64();
    PendingQuery pending;
    pending.request = r.ReadRequest();
    pending.target_site = r.ReadI32();
    pending.attempts = r.ReadI32();
    pending.expected_answers = r.ReadI32();
    const int64_t parts = r.ReadI64();
    for (int64_t j = 0; j < parts; ++j) {
      pending.relations_seen.insert(r.ReadI32());
    }
    pending_queries_.emplace(query_id, std::move(pending));
  }
  duplicate_updates_ignored_ = r.ReadI64();
  stale_answers_ignored_ = r.ReadI64();
  queries_reissued_ = r.ReadI64();
  foreign_skip_log_.clear();
  const int64_t skips = r.ReadI64();
  for (int64_t i = 0; i < skips; ++i) {
    const int64_t id = r.ReadI64();
    const SimTime at = r.ReadI64();
    foreign_skip_log_.emplace_back(id, at);
  }
  foreign_updates_discarded_ = r.ReadI64();
  install_time_log_.clear();
  const int64_t install_times = r.ReadI64();
  for (int64_t i = 0; i < install_times; ++i) {
    const int64_t id = r.ReadI64();
    const SimTime at = r.ReadI64();
    install_time_log_.emplace_back(id, at);
  }
  DeserializeAlgState(r);
  SWEEP_CHECK_MSG(r.AtEnd(),
                  "checkpoint not fully consumed on restore — the "
                  "serializer and deserializer disagree");
}

void Warehouse::TakeCheckpoint() {
  durable_checkpoint_ = SerializeCheckpoint();
  durable_wal_.clear();
  ++checkpoints_taken_;
  const auto size = static_cast<int64_t>(durable_checkpoint_.size());
  if (size > checkpoint_bytes_max_) checkpoint_bytes_max_ = size;
}

void Warehouse::StampEpoch(Message* request, int64_t epoch) {
  if (auto* query = std::get_if<QueryRequest>(request)) {
    query->epoch = epoch;
    return;
  }
  if (auto* eca = std::get_if<EcaQueryRequest>(request)) {
    eca->epoch = epoch;
    return;
  }
  if (auto* snap = std::get_if<SnapshotRequest>(request)) {
    snap->epoch = epoch;
    return;
  }
  SWEEP_CHECK_MSG(false, "pending query holds a non-query request");
}

void Warehouse::Crash() {
  CaptureUndo(/*full=*/true);
  SWEEP_CHECK_MSG(DurabilityOn(),
                  "warehouse crash without a durable store (set "
                  "Options::checkpoint_every)");
  SWEEP_CHECK_MSG(!crashed_, "warehouse crashed while already down");
  SWEEP_LOG(Info) << name() << " crashed";
  crashed_ = true;
  network_->CrashSite(site_id_);
}

void Warehouse::Restart() {
  CaptureUndo(/*full=*/true);
  SWEEP_CHECK_MSG(crashed_, "warehouse restarted while up");
  network_->RestartSite(site_id_);
  crashed_ = false;
  Recover();
}

void Warehouse::CrashAndRecover() {
  CaptureUndo(/*full=*/true);
  SWEEP_CHECK_MSG(DurabilityOn(),
                  "warehouse crash without a durable store (set "
                  "Options::checkpoint_every)");
  SWEEP_CHECK(!crashed_);
  SWEEP_LOG(Info) << name() << " crash+recover (controlled)";
  Recover();
}

void Warehouse::Recover() {
  ++recoveries_;
  // Timers armed by the dead incarnation must not fire for the new one.
  ++timer_gen_;
  ++durable_epoch_;
  epoch_ = durable_epoch_;
  if (!durable_checkpoint_.empty()) {
    RestoreFromCheckpoint(durable_checkpoint_);
  }
  SWEEP_LOG(Info) << name() << " recovering under epoch " << epoch_
                  << ": " << pending_queries_.size()
                  << " in-flight queries, " << durable_wal_.size()
                  << " WAL updates";
  // Re-issue every restored in-flight query under the new epoch. Answers
  // consumed between the checkpoint and the crash were consumed by state
  // the restore just discarded, so the restored algorithm state is again
  // waiting on all of them; the fresh epoch stamp separates the answers
  // these re-issues produce from anything the dead incarnation left in
  // flight. relations_seen restarts empty so multi-part snapshots are
  // re-collected whole (fresher parts simply overwrite).
  for (auto& [query_id, pending] : pending_queries_) {
    StampEpoch(&pending.request, epoch_);
    pending.attempts = 1;
    pending.relations_seen.clear();
    ++queries_reissued_;
    network_->Send(site_id_, pending.target_site, pending.request);
    if (options_.query_timeout > 0) ArmQueryTimer(query_id);
  }
  // Replay the WAL through the normal arrival path — this is the
  // "replay logged updates instead of rebuilding the view" half of
  // recovery. recovering_ keeps the replay from re-appending to the WAL
  // it is draining (the entries stay put: they are still the
  // post-checkpoint suffix afterwards).
  recovering_ = true;
  const std::vector<Update> wal = durable_wal_;
  for (const Update& u : wal) {
    ++wal_replayed_;
    AcceptUpdate(UpdateMessage{u});
  }
  recovering_ = false;
}

SimTime Warehouse::BackoffDelay(int64_t query_id, int attempt) const {
  // Capped exponential backoff: attempt n waits base * 2^(n-1), clamped
  // at base * query_backoff_cap, plus jitter. The jitter is a hash of
  // (query id, attempt) — splitmix64's finalizer — so it de-synchronizes
  // re-issue bursts without introducing any state the replay/snapshot
  // machinery would have to capture: the same query re-issued on the
  // same attempt always waits exactly as long.
  const SimTime base = options_.query_timeout;
  const SimTime cap = base * options_.query_backoff_cap;
  SimTime delay = base;
  for (int i = 1; i < attempt && delay < cap; ++i) delay *= 2;
  if (delay > cap) delay = cap;
  uint64_t mix = static_cast<uint64_t>(query_id) * 0x9e3779b97f4a7c15ull +
                 static_cast<uint64_t>(attempt);
  mix ^= mix >> 30;
  mix *= 0xbf58476d1ce4e5b9ull;
  mix ^= mix >> 27;
  mix *= 0x94d049bb133111ebull;
  mix ^= mix >> 31;
  const SimTime span = delay / 4 + 1;
  return delay + static_cast<SimTime>(mix % static_cast<uint64_t>(span));
}

void Warehouse::ArmQueryTimer(int64_t query_id) {
  auto armed = pending_queries_.find(query_id);
  SWEEP_CHECK(armed != pending_queries_.end());
  const SimTime delay = BackoffDelay(query_id, armed->second.attempts);
  const int64_t gen = timer_gen_;
  // Content digest so the explorer's canonical fingerprint can identify
  // the pending timer: which query, which incarnation, which attempt.
  StateHasher timer_hash;
  timer_hash.I64("timer.query", query_id);
  timer_hash.I64("timer.gen", gen);
  timer_hash.I64("timer.attempt", armed->second.attempts);
  const Fp128 t = timer_hash.Digest();
  const uint64_t timer_digest = (t.lo ^ t.hi) == 0 ? 1 : (t.lo ^ t.hi);
  // lint:allow direct-schedule local timer, not a protocol message: fires
  // at this site only, sends nothing itself, so it needs no EventLabel
  // channel and cannot perturb per-link FIFO order.
  network_->simulator()->Schedule(
      delay, EventLabel{}, timer_digest, [this, query_id, gen]() {
    CaptureUndo(/*full=*/false);
    // A crashed warehouse sends nothing; a timer armed by a dead
    // incarnation stays dead (recovery re-armed its own).
    if (crashed_ || gen != timer_gen_) return;
    auto it = pending_queries_.find(query_id);
    if (it == pending_queries_.end()) return;  // answered meanwhile
    PendingQuery& pending = it->second;
    if (pending.attempts > options_.query_retry_limit) {
      SWEEP_LOG(Info) << name() << " gave up on query #" << query_id
                      << " after " << options_.query_retry_limit
                      << " re-issues";
      return;
    }
    ++pending.attempts;
    if (max_query_attempts_ < pending.attempts) {
      max_query_attempts_ = pending.attempts;
    }
    ++queries_reissued_;
    SWEEP_LOG(Debug) << name() << " re-issuing query #" << query_id
                     << " (attempt " << pending.attempts << ")";
    network_->Send(site_id_, pending.target_site, pending.request);
    ArmQueryTimer(query_id);
  });
}

void Warehouse::HandleQueryAnswer(QueryAnswer) {
  SWEEP_CHECK_MSG(false, "this algorithm does not use sweep queries");
}

void Warehouse::HandleEcaAnswer(EcaQueryAnswer) {
  SWEEP_CHECK_MSG(false, "this algorithm does not use ECA queries");
}

void Warehouse::HandleSnapshotAnswer(SnapshotAnswer) {
  SWEEP_CHECK_MSG(false, "this algorithm does not use snapshots");
}

int64_t Warehouse::SendSweepQuery(int target_rel, bool extend_left,
                                  PartialDelta partial) {
  int64_t id = NextQueryId();
  ++queries_sent_;
  Message request(
      QueryRequest{id, target_rel, extend_left, std::move(partial), epoch_});
  RegisterQuery(id, source_site(target_rel), request);
  network_->Send(site_id_, source_site(target_rel), std::move(request));
  return id;
}

int64_t Warehouse::SendEcaQuery(std::vector<EcaTerm> terms) {
  int64_t id = NextQueryId();
  ++queries_sent_;
  Message request(EcaQueryRequest{id, std::move(terms), epoch_});
  RegisterQuery(id, source_site(0), request);
  network_->Send(site_id_, source_site(0), std::move(request));
  return id;
}

int64_t Warehouse::SendSnapshotRequest(int target_rel) {
  int64_t id = NextQueryId();
  ++queries_sent_;
  int target = source_site(target_rel);
  // A multi-relation site answers one snapshot request with one
  // SnapshotAnswer per relation it hosts.
  int expected = 0;
  for (int rel = 0; rel < view_def_.num_relations(); ++rel) {
    if (source_site(rel) == target) ++expected;
  }
  SnapshotRequest request{id, epoch_};
  RegisterQuery(id, target, request, expected);
  network_->Send(site_id_, target, request);
  return id;
}

void Warehouse::InstallViewDelta(Relation view_delta,
                                 std::vector<int64_t> update_ids) {
  SWEEP_LOG(Debug) << name() << " installing delta "
                   << view_delta.ToDisplayString();
  // sweeplint:allow effect-bounds observer_ is wiring-time instrumentation
  // (sharded-view fragment sums, bench taps); controlled explorations
  // never install one, and the dynamic oracle enforces that.
  if (observer_) observer_(view_delta, update_ids);
  view_.Merge(std::move(view_delta));
  SWEEP_LOG(Debug) << name() << " view now " << view_.ToDisplayString();
  RecordInstall(std::move(update_ids));
}

void Warehouse::InstallAbsoluteView(Relation new_view,
                                    std::vector<int64_t> update_ids) {
  if (observer_) {
    Relation delta = new_view;
    delta.MergeNegated(view_);
    // sweeplint:allow effect-bounds observer_ is wiring-time
    // instrumentation; controlled explorations never install one, and
    // the dynamic oracle enforces that.
    observer_(delta, update_ids);
  }
  view_ = std::move(new_view);
  RecordInstall(std::move(update_ids));
}

void Warehouse::RecordInstall(std::vector<int64_t> update_ids) {
  updates_incorporated_ += static_cast<int64_t>(update_ids.size());
  const SimTime now = network_->simulator()->now();
  for (int64_t id : update_ids) install_time_log_.emplace_back(id, now);
  if (!options_.log_installs) return;
  InstallRecord record;
  record.time = network_->simulator()->now();
  record.update_ids = std::move(update_ids);
  record.view_after = view_;
  record.negative_counts = view_.HasNegative();
  installs_.push_back(std::move(record));
}

void Warehouse::DiscardForeignQueueHead() {
  while (!queue_.empty() && !OwnsUpdate(queue_.front())) {
    foreign_skip_log_.emplace_back(queue_.front().id,
                                   network_->simulator()->now());
    ++foreign_updates_discarded_;
    SWEEP_LOG(Debug) << name() << " discarded foreign update #"
                     << queue_.front().id;
    queue_.pop_front();
  }
}

Relation Warehouse::MergedQueueDeltaFor(int rel) const {
  Relation merged(view_def_.rel_schema(rel));
  for (const Update& u : queue_) {
    if (u.relation == rel) merged.Merge(u.delta);
  }
  return merged;
}

int Warehouse::source_site(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < static_cast<int>(source_sites_.size()));
  return source_sites_[static_cast<size_t>(rel)];
}

}  // namespace sweepmv
