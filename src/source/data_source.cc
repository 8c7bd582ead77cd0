#include "source/data_source.h"

#include "common/check.h"
#include "common/log.h"
#include "relational/partial_delta.h"
#include "storage/index_catalog.h"
#include "storage/indexed_ops.h"

namespace sweepmv {

DataSource::DataSource(int site_id, int relation_index, Relation initial,
                       const ViewDef* view, Network* network,
                       int warehouse_site, UpdateIdGenerator* ids,
                       SourceStorageOptions storage)
    : site_id_(site_id),
      relation_index_(relation_index),
      store_(std::move(initial)),
      view_(view),
      network_(network),
      warehouse_sites_{warehouse_site},
      ids_(ids),
      storage_options_(storage) {
  SWEEP_CHECK(view != nullptr && network != nullptr && ids != nullptr);
  SWEEP_CHECK(relation_index >= 0 &&
              relation_index < view->num_relations());
  SWEEP_CHECK_MSG(!store_.relation().HasNegative(),
                  "base relations must have positive counts");
  log_.SetInitial(store_.relation());
  if (storage_options_.use_indexes) {
    IndexCatalog catalog(*view_);
    for (const auto& key : catalog.key_sets(relation_index_)) {
      store_.EnsureIndex(key);
    }
  }
}

void IndexedStore::Capture(UndoLog& undo, IndexedRelation& store,
                           EffectAtom atom) {
  undo.Capture(
      &store,
      [&store, saved = store.relation()]() { store.RestoreRelation(saved); },
      [&store, atom, saved = store.relation()](std::vector<EffectAtom>& out) {
        if (!(store.relation() == saved)) out.push_back(atom);
      });
}

bool IndexedStore::Hash(StateHasher& h, const char* name,
                        const IndexedRelation& store, bool) {
  HashLeaf(h, name, store.relation());
  return true;
}

bool DataSource::QueryCounts::Hash(StateHasher& h, const char* name,
                                   const StorageStats& stats, bool) {
  h.I64(name, stats.index_probes);
  h.I64(name, stats.scan_fallbacks);
  return true;
}

void DataSource::CaptureUndo() {
  if (undo_ == nullptr) return;
  CaptureState(*undo_, *this, "DataSource", site_id_);
}

int64_t DataSource::ApplyTransaction(const std::vector<UpdateOp>& ops) {
  CaptureUndo();
  // A crashed site executes no transactions; the workload simply does not
  // happen here until the site is back.
  if (crashed_) return -1;
  Relation delta = OpsToDelta(view_->rel_schema(relation_index_), ops);
  if (delta.Empty()) return -1;

  store_.Merge(delta);
  CheckDeltaApplied(store_.relation(), delta);

  Update update;
  update.id = ids_->Next();
  update.relation = relation_index_;
  update.delta = std::move(delta);
  update.applied_at = network_->simulator()->now();
  log_.Append(update.id, update.delta, update.applied_at);

  SWEEP_LOG(Trace) << "source R" << relation_index_ << " applied "
                   << update.ToDisplayString();
  int64_t id = update.id;
  // Every warehouse but the last gets a copy; the last takes the update.
  for (size_t i = 0; i + 1 < warehouse_sites_.size(); ++i) {
    network_->Send(site_id_, warehouse_sites_[i], UpdateMessage{update});
  }
  network_->Send(site_id_, warehouse_sites_.back(),
                 UpdateMessage{std::move(update)});
  return id;
}

void DataSource::AddWarehouse(int warehouse_site) {
  warehouse_sites_.push_back(warehouse_site);
}

void DataSource::Crash() {
  CaptureUndo();
  SWEEP_CHECK_MSG(!crashed_, "source is already crashed");
  crashed_ = true;
  network_->CrashSite(site_id_);
  SWEEP_LOG(Debug) << "source R" << relation_index_ << " crashed";
}

void DataSource::Restart() {
  CaptureUndo();
  SWEEP_CHECK_MSG(crashed_, "source is not crashed");
  crashed_ = false;
  network_->RestartSite(site_id_);
  // Indexes are a volatile cache over the durable relation; the new
  // incarnation rebuilds them before answering any query.
  store_.RebuildIndexes();
  // Recovery: the source cannot know which notifications reached the
  // warehouse (that knowledge was volatile), so it replays the whole
  // committed log. Per-link session FIFO delivers the replays in log
  // order and the warehouse discards ids it already incorporated, which
  // together preserve the per-source prefix property SWEEP's consistency
  // argument needs.
  for (const LoggedUpdate& logged : log_.updates()) {
    Update update;
    update.id = logged.id;
    update.relation = relation_index_;
    update.delta = logged.delta;
    update.applied_at = logged.applied_at;
    for (int warehouse : warehouse_sites_) {
      network_->Send(site_id_, warehouse, UpdateMessage{update});
    }
    ++updates_replayed_;
  }
  SWEEP_LOG(Debug) << "source R" << relation_index_ << " restarted, "
                   << "replayed " << log_.updates().size() << " updates";
}

int64_t DataSource::ApplyTxn(int relation_index,
                             const std::vector<UpdateOp>& ops) {
  SWEEP_CHECK_MSG(relation_index == relation_index_,
                  "this site does not host that relation");
  return ApplyTransaction(ops);
}

const StateLog& DataSource::LogOf(int relation_index) const {
  SWEEP_CHECK(relation_index == relation_index_);
  return log_;
}

const Relation& DataSource::RelationOf(int relation_index) const {
  SWEEP_CHECK(relation_index == relation_index_);
  return store_.relation();
}

StorageStats DataSource::storage_stats() const {
  StorageStats stats = store_.stats();
  stats.MergeFrom(query_stats_);
  return stats;
}

int64_t DataSource::ApplyInsert(Tuple t) {
  return ApplyTransaction({UpdateOp::Insert(std::move(t))});
}

int64_t DataSource::ApplyDelete(Tuple t) {
  return ApplyTransaction({UpdateOp::Delete(std::move(t))});
}

void DataSource::OnMessage(int from, Message msg) {
  CaptureUndo();
  // The network drops deliveries to crashed sites; this guard is defense
  // in depth.
  if (crashed_) return;
  if (auto* query = std::get_if<QueryRequest>(&msg)) {
    SWEEP_CHECK_MSG(query->target_rel == relation_index_,
                    "query routed to the wrong source");
    PartialDelta result;
    if (storage_options_.use_indexes) {
      result = query->extend_left
                   ? ExtendLeftIndexed(*view_, store_, query->partial,
                                       &query_stats_)
                   : ExtendRightIndexed(*view_, query->partial, store_,
                                        &query_stats_);
    } else {
      result = query->extend_left
                   ? ExtendLeft(*view_, store_.relation(), query->partial)
                   : ExtendRight(*view_, query->partial, store_.relation());
      ++query_stats_.scan_fallbacks;
    }
    ++queries_answered_;
    network_->Send(site_id_, from,
                   QueryAnswer{query->query_id, std::move(result),
                               query->epoch});
    return;
  }
  if (auto* snap = std::get_if<SnapshotRequest>(&msg)) {
    network_->Send(site_id_, from,
                   SnapshotAnswer{snap->query_id, relation_index_,
                                  store_.relation(), snap->epoch});
    return;
  }
  SWEEP_CHECK_MSG(false, "data source received an unexpected message type");
}

}  // namespace sweepmv
