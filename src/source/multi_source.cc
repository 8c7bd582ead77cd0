#include "source/multi_source.h"

#include "common/check.h"
#include "relational/partial_delta.h"
#include "storage/index_catalog.h"
#include "storage/indexed_ops.h"

namespace sweepmv {

MultiRelationSource::MultiRelationSource(
    int site_id, std::vector<std::pair<int, Relation>> relations,
    const ViewDef* view, Network* network, int warehouse_site,
    UpdateIdGenerator* ids, SourceStorageOptions storage)
    : site_id_(site_id),
      view_(view),
      network_(network),
      warehouse_site_(warehouse_site),
      ids_(ids),
      storage_options_(storage) {
  SWEEP_CHECK(view != nullptr && network != nullptr && ids != nullptr);
  SWEEP_CHECK_MSG(!relations.empty(), "a source must host something");
  IndexCatalog catalog(*view_);
  for (auto& [index, relation] : relations) {
    SWEEP_CHECK(index >= 0 && index < view->num_relations());
    SWEEP_CHECK_MSG(!relation.HasNegative(),
                    "base relations must have positive counts");
    Hosted hosted;
    hosted.log.SetInitial(relation);
    hosted.store = IndexedRelation(std::move(relation));
    if (storage_options_.use_indexes) {
      for (const auto& key : catalog.key_sets(index)) {
        hosted.store.EnsureIndex(key);
      }
    }
    auto [it, inserted] = hosted_.emplace(index, std::move(hosted));
    SWEEP_CHECK_MSG(inserted, "relation hosted twice");
    (void)it;
  }
}

MultiRelationSource::Hosted& MultiRelationSource::HostedOrDie(
    int relation_index) {
  auto it = hosted_.find(relation_index);
  SWEEP_CHECK_MSG(it != hosted_.end(),
                  "this site does not host that relation");
  return it->second;
}

const MultiRelationSource::Hosted& MultiRelationSource::HostedOrDie(
    int relation_index) const {
  auto it = hosted_.find(relation_index);
  SWEEP_CHECK_MSG(it != hosted_.end(),
                  "this site does not host that relation");
  return it->second;
}

int64_t MultiRelationSource::ApplyTxn(int relation_index,
                                      const std::vector<UpdateOp>& ops) {
  Hosted& hosted = HostedOrDie(relation_index);
  Relation delta = OpsToDelta(view_->rel_schema(relation_index), ops);
  if (delta.Empty()) return -1;

  hosted.store.Merge(delta);
  CheckDeltaApplied(hosted.store.relation(), delta);

  Update update;
  update.id = ids_->Next();
  update.relation = relation_index;
  update.delta = std::move(delta);
  update.applied_at = network_->simulator()->now();
  hosted.log.Append(update.id, update.delta, update.applied_at);

  int64_t id = update.id;
  network_->Send(site_id_, warehouse_site_,
                 UpdateMessage{std::move(update)});
  return id;
}

const StateLog& MultiRelationSource::LogOf(int relation_index) const {
  return HostedOrDie(relation_index).log;
}

const Relation& MultiRelationSource::RelationOf(int relation_index) const {
  return HostedOrDie(relation_index).store.relation();
}

StorageStats MultiRelationSource::storage_stats() const {
  StorageStats stats = query_stats_;
  for (const auto& [index, hosted] : hosted_) {
    stats.MergeFrom(hosted.store.stats());
  }
  return stats;
}

void MultiRelationSource::OnMessage(int from, Message msg) {
  if (auto* query = std::get_if<QueryRequest>(&msg)) {
    Hosted& hosted = HostedOrDie(query->target_rel);
    PartialDelta result;
    if (storage_options_.use_indexes) {
      result = query->extend_left
                   ? ExtendLeftIndexed(*view_, hosted.store, query->partial,
                                       &query_stats_)
                   : ExtendRightIndexed(*view_, query->partial, hosted.store,
                                        &query_stats_);
    } else {
      result =
          query->extend_left
              ? ExtendLeft(*view_, hosted.store.relation(), query->partial)
              : ExtendRight(*view_, query->partial,
                            hosted.store.relation());
      ++query_stats_.scan_fallbacks;
    }
    ++queries_answered_;
    network_->Send(site_id_, from,
                   QueryAnswer{query->query_id, std::move(result),
                               query->epoch});
    return;
  }
  if (auto* snap = std::get_if<SnapshotRequest>(&msg)) {
    for (const auto& [index, hosted] : hosted_) {
      network_->Send(site_id_, from,
                     SnapshotAnswer{snap->query_id, index,
                                    hosted.store.relation(), snap->epoch});
    }
    return;
  }
  SWEEP_CHECK_MSG(false,
                  "multi-relation source received an unexpected message");
}

std::vector<int> MultiRelationSource::hosted_relations() const {
  std::vector<int> indices;
  indices.reserve(hosted_.size());
  for (const auto& [index, hosted] : hosted_) indices.push_back(index);
  return indices;
}

}  // namespace sweepmv
