#include "core/warehouse.h"

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

namespace {

// The message that carries a pending request.
Message AsMessage(const Request& request) {
  return std::visit([](const auto& r) { return Message(r); }, request);
}

}  // namespace

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
  CaptureState(*undo_, *this, full);
}

void Warehouse::VisitAlgState(const AlgVisitor&) {
  SWEEP_CHECK_MSG(false, "this warehouse declares no algorithm state list "
                         "(VisitAlgState)");
}

void Warehouse::VisitAlgState(const ConstAlgVisitor&) const {
  SWEEP_CHECK_MSG(false, "this warehouse declares no algorithm state list "
                         "(VisitAlgState)");
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
                              Request request, int expected_answers) {
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

std::string Warehouse::SerializeCheckpoint() const {
  return EncodeCheckpoint(/*apart=*/nullptr);
}

void Warehouse::RestoreFromCheckpoint(const std::string& bytes) {
  DecodeCheckpoint(bytes, /*apart=*/nullptr);
}

std::string Warehouse::EncodeCheckpoint(const void* apart) const {
  CheckpointWriter w;
  StateEncoder<CheckpointWriter> encoder(w, apart);
  VisitState(*this, encoder);
  return w.Take();
}

void Warehouse::DecodeCheckpoint(const std::string& bytes,
                                 const void* apart) {
  CheckpointReader r(bytes);
  StateDecoder<CheckpointReader> decoder(r, apart);
  VisitState(*this, decoder);
  SWEEP_CHECK_MSG(r.AtEnd(), "checkpoint not fully consumed on restore");
}

void Warehouse::TakeCheckpoint() {
  durable_view_.Cut(view_, delta_since_cut_ ? &*delta_since_cut_ : nullptr);
  delta_since_cut_.emplace(view_.schema());
  durable_checkpoint_ = EncodeCheckpoint(/*apart=*/&view_);
  durable_wal_.clear();
  ++checkpoints_taken_;
  const auto size =
      static_cast<int64_t>(durable_checkpoint_.size() + durable_view_.size());
  if (size > checkpoint_bytes_max_) checkpoint_bytes_max_ = size;
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
  // Restoring also truncates the audit logs to the lengths the cut
  // recorded, before the WAL replay below appends to them again.
  if (!durable_checkpoint_.empty()) {
    DecodeCheckpoint(durable_checkpoint_, /*apart=*/&view_);
    view_ = durable_view_.Rebuild();
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
    std::visit([this](auto& request) { request.epoch = epoch_; },
               pending.request);
    pending.attempts = 1;
    pending.relations_seen.clear();
    ++queries_reissued_;
    network_->Send(site_id_, pending.target_site, AsMessage(pending.request));
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
  // Only worth computing in controlled mode (time-ordered runs never hash
  // state).
  uint64_t timer_digest = 0;
  if (network_->simulator()->controlled()) {
    StateHasher timer_hash;
    timer_hash.I64("timer.query", query_id);
    timer_hash.I64("timer.gen", gen);
    timer_hash.I64("timer.attempt", armed->second.attempts);
    const Fp128 t = timer_hash.Digest();
    timer_digest = (t.lo ^ t.hi) == 0 ? 1 : (t.lo ^ t.hi);
  }
  // sweeplint:allow direct-schedule local timer, not a protocol message: fires
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
    network_->Send(site_id_, pending.target_site, AsMessage(pending.request));
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
  QueryRequest request{id, target_rel, extend_left, std::move(partial),
                       epoch_};
  RegisterQuery(id, source_site(target_rel), request);
  network_->Send(site_id_, source_site(target_rel), std::move(request));
  return id;
}

int64_t Warehouse::SendEcaQuery(std::vector<EcaTerm> terms) {
  int64_t id = NextQueryId();
  ++queries_sent_;
  EcaQueryRequest request{id, std::move(terms), epoch_};
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
  if (observer_) observer_(view_delta, update_ids);
  if (delta_since_cut_) delta_since_cut_->Merge(view_delta);
  view_.Merge(std::move(view_delta));
  SWEEP_LOG(Debug) << name() << " view now " << view_.ToDisplayString();
  RecordInstall(std::move(update_ids));
}

void Warehouse::InstallAbsoluteView(Relation new_view,
                                    std::vector<int64_t> update_ids) {
  if (observer_) {
    Relation delta = new_view;
    delta.MergeNegated(view_);
    observer_(delta, update_ids);
  }
  view_ = std::move(new_view);
  // The delta is not built here, so the next cut rewrites the base.
  delta_since_cut_.reset();
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
