#include "source/data_source.h"

#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "relational/operators.h"
#include "relational/partial_delta.h"
#include "storage/index_catalog.h"
#include "storage/indexed_ops.h"

namespace sweepmv {

namespace {

std::vector<Relation> OneRelation(Relation relation) {
  std::vector<Relation> relations;
  relations.push_back(std::move(relation));
  return relations;
}

}  // namespace

DataSource::DataSource(int site_id, int first_relation,
                       std::vector<Relation> initial, const ViewDef* view,
                       Network* network, int warehouse_site,
                       UpdateIdGenerator* ids, SourceStorageOptions storage)
    : site_id_(site_id),
      first_relation_(first_relation),
      view_(view),
      network_(network),
      warehouse_sites_{warehouse_site},
      ids_(ids),
      storage_options_(storage),
      logs_(initial.size()) {
  SWEEP_CHECK(view != nullptr && network != nullptr && ids != nullptr);
  SWEEP_CHECK_MSG(!initial.empty(), "a source must host something");
  SWEEP_CHECK(first_relation >= 0 &&
              first_relation + static_cast<int>(initial.size()) <=
                  view->num_relations());
  stores_.reserve(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) {
    SWEEP_CHECK_MSG(!initial[i].HasNegative(),
                    "base relations must have positive counts");
    logs_[i].SetInitial(initial[i]);
    stores_.emplace_back(std::move(initial[i]));
  }
  if (storage_options_.use_indexes) {
    IndexCatalog catalog(*view_);
    for (size_t i = 0; i < stores_.size(); ++i) {
      for (const auto& key :
           catalog.key_sets(first_relation_ + static_cast<int>(i))) {
        stores_[i].EnsureIndex(key);
      }
    }
  }
}

DataSource::DataSource(int site_id, int relation_index, Relation initial,
                       const ViewDef* view, Network* network,
                       int warehouse_site, UpdateIdGenerator* ids,
                       SourceStorageOptions storage)
    : DataSource(site_id, relation_index, OneRelation(std::move(initial)),
                 view, network, warehouse_site, ids, storage) {}

std::vector<Relation> IndexedStores::Save(
    const std::vector<IndexedRelation>& stores) {
  std::vector<Relation> saved;
  saved.reserve(stores.size());
  for (const IndexedRelation& store : stores) saved.push_back(store.relation());
  return saved;
}

void IndexedStores::Restore(std::vector<IndexedRelation>& stores,
                            const std::vector<Relation>& saved) {
  for (size_t i = 0; i < stores.size(); ++i) {
    stores[i].RestoreRelation(saved[i]);
  }
}

void IndexedStores::Capture(UndoLog& undo,
                            std::vector<IndexedRelation>& stores) {
  undo.Capture(&stores,
               [&stores, saved = Save(stores)]() { Restore(stores, saved); });
}

void IndexedStores::Hash(StateHasher& h, const char* name,
                         const std::vector<IndexedRelation>& stores, bool) {
  h.U64(name, stores.size());
  for (const IndexedRelation& store : stores) {
    HashLeaf(h, name, store.relation());
  }
}

void DataSource::QueryCounts::Hash(StateHasher& h, const char* name,
                                   const StorageStats& stats, bool) {
  h.I64(name, stats.index_probes);
  h.I64(name, stats.scan_fallbacks);
}

void DataSource::CaptureUndo() {
  if (undo_ == nullptr) return;
  CaptureState(*undo_, *this);
}

size_t DataSource::Slot(int relation_index) const {
  const int slot = relation_index - first_relation_;
  SWEEP_CHECK_MSG(slot >= 0 && slot < static_cast<int>(stores_.size()),
                  "routed to the wrong source: this site does not host "
                  "that relation");
  return static_cast<size_t>(slot);
}

int DataSource::SoleRelation() const {
  SWEEP_CHECK_MSG(stores_.size() == 1, "this site hosts several relations");
  return first_relation_;
}

int64_t DataSource::ApplyTxn(int relation_index,
                             const std::vector<UpdateOp>& ops) {
  CaptureUndo();
  const size_t slot = Slot(relation_index);
  // A crashed site executes no transactions; the workload simply does not
  // happen here until the site is back.
  if (crashed_) return -1;
  Relation delta = OpsToDelta(view_->rel_schema(relation_index), ops);
  if (delta.Empty()) return -1;

  stores_[slot].Merge(delta);
  CheckDeltaApplied(stores_[slot].relation(), delta);

  Update update;
  update.id = ids_->Next();
  update.relation = relation_index;
  update.delta = std::move(delta);
  update.applied_at = network_->simulator()->now();
  logs_[slot].Append(update.id, update.delta, update.applied_at);

  SWEEP_LOG(Trace) << "source " << site_id_ << " applied "
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
  SWEEP_LOG(Debug) << "source " << site_id_ << " crashed";
}

void DataSource::Restart() {
  CaptureUndo();
  SWEEP_CHECK_MSG(crashed_, "source is not crashed");
  crashed_ = false;
  network_->RestartSite(site_id_);
  // Indexes are a volatile cache over the durable relations; the new
  // incarnation rebuilds them before answering any query.
  for (IndexedRelation& store : stores_) store.RebuildIndexes();
  // Recovery: the source cannot know which notifications reached the
  // warehouse (that knowledge was volatile), so it replays every
  // committed log. Per-link session FIFO delivers each relation's replays
  // in log order and the warehouse discards ids it already incorporated,
  // which together preserve the per-relation prefix property SWEEP's
  // consistency argument needs.
  int64_t replayed = 0;
  for (size_t slot = 0; slot < logs_.size(); ++slot) {
    for (const LoggedUpdate& logged : logs_[slot].updates()) {
      Update update;
      update.id = logged.id;
      update.relation = first_relation_ + static_cast<int>(slot);
      update.delta = logged.delta;
      update.applied_at = logged.applied_at;
      for (int warehouse : warehouse_sites_) {
        network_->Send(site_id_, warehouse, UpdateMessage{update});
      }
      ++replayed;
    }
  }
  updates_replayed_ += replayed;
  SWEEP_LOG(Debug) << "source " << site_id_ << " restarted, replayed "
                   << replayed << " updates";
}

std::vector<int> DataSource::hosted_relations() const {
  std::vector<int> indices;
  indices.reserve(stores_.size());
  for (size_t i = 0; i < stores_.size(); ++i) {
    indices.push_back(first_relation_ + static_cast<int>(i));
  }
  return indices;
}

const StateLog& DataSource::log(int relation_index) const {
  return logs_[Slot(relation_index)];
}

const Relation& DataSource::relation(int relation_index) const {
  return stores_[Slot(relation_index)].relation();
}

StorageStats DataSource::storage_stats() const {
  StorageStats stats = query_stats_;
  for (const IndexedRelation& store : stores_) stats.MergeFrom(store.stats());
  return stats;
}

void DataSource::OnMessage(int from, Message msg) {
  CaptureUndo();
  // The network drops deliveries to crashed sites; this guard is defense
  // in depth.
  if (crashed_) return;
  if (auto* query = std::get_if<QueryRequest>(&msg)) {
    IndexedRelation& store = stores_[Slot(query->target_rel)];
    PartialDelta result;
    if (storage_options_.use_indexes) {
      result = query->extend_left
                   ? ExtendLeftIndexed(*view_, store, query->partial,
                                       &query_stats_)
                   : ExtendRightIndexed(*view_, query->partial, store,
                                        &query_stats_);
    } else {
      result = query->extend_left
                   ? ExtendLeft(*view_, store.relation(), query->partial)
                   : ExtendRight(*view_, query->partial, store.relation());
      ++query_stats_.scan_fallbacks;
    }
    ++queries_answered_;
    network_->Send(site_id_, from,
                   QueryAnswer{query->query_id, std::move(result),
                               query->epoch});
    return;
  }
  if (auto* query = std::get_if<EcaQueryRequest>(&msg)) {
    SWEEP_CHECK_MSG(static_cast<int>(stores_.size()) ==
                        view_->num_relations(),
                    "ECA queries need a source hosting the whole chain");
    Relation result(view_->joined_schema());
    for (const EcaTerm& term : query->terms) {
      Relation value = EvaluateTerm(term);
      if (term.sign >= 0) {
        result.Merge(value);
      } else {
        result.MergeNegated(value);
      }
    }
    ++queries_answered_;
    network_->Send(site_id_, from,
                   EcaQueryAnswer{query->query_id, std::move(result),
                                  query->epoch});
    return;
  }
  if (auto* snap = std::get_if<SnapshotRequest>(&msg)) {
    for (size_t i = 0; i < stores_.size(); ++i) {
      network_->Send(site_id_, from,
                     SnapshotAnswer{snap->query_id,
                                    first_relation_ + static_cast<int>(i),
                                    stores_[i].relation(), snap->epoch});
    }
    return;
  }
  SWEEP_CHECK_MSG(false, "data source received an unexpected message type");
}

Relation DataSource::EvaluateTerm(const EcaTerm& term) const {
  SWEEP_CHECK(term.fixed.size() == stores_.size());
  auto input = [&](int rel) -> const Relation& {
    const auto& fixed = term.fixed[static_cast<size_t>(rel)];
    return fixed.has_value() ? *fixed
                             : stores_[static_cast<size_t>(rel)].relation();
  };
  Relation acc = input(0);
  for (int rel = 1; rel < view_->num_relations(); ++rel) {
    acc = Join(acc, input(rel), view_->ExtendRightKeys(0, rel));
  }
  return acc;
}

}  // namespace sweepmv
