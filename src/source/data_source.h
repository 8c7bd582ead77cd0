// A data-source site: one base relation plus the paper's Update & Query
// Server (Figure 3).
//
// The server has two duties:
//   * SendUpdates — every locally executed transaction is forwarded to the
//     warehouse as one atomic unit (an UpdateMessage);
//   * ProcessQuery — an incremental query from the warehouse (a partial
//     delta) is joined with the *current* local relation and sent back.
// Requests are serviced sequentially and the join is synchronized with
// local update transactions, which the single-threaded simulator gives us
// for free: each event runs to completion.

#ifndef SWEEPMV_SOURCE_DATA_SOURCE_H_
#define SWEEPMV_SOURCE_DATA_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/state.h"
#include "common/undo.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "source/source_site.h"
#include "source/state_log.h"
#include "source/update.h"
#include "storage/indexed_relation.h"

namespace sweepmv {

// Issues globally unique update ids (instrumentation only; a real
// deployment needs no such shared counter).
class UpdateIdGenerator {
 public:
  int64_t Next() { return next_++; }

  // The counter is schedule-determined system state the explorer
  // rewinds; ControlledSystem owns it in its list.
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("next_", self.next_);
  }

 private:
  int64_t next_ = 0;
};

// State-list adapter for a site's pointer to the shared id generator:
// snapshot and fingerprint take the generator once, from its owner, but
// every site that may advance it records it at its own entry points (the
// log's first-touch-per-era dedup keeps one entry per watermark span).
struct SharedIdGenerator {
  static void Capture(UndoLog& undo, UpdateIdGenerator* ids, EffectAtom) {
    CaptureState(undo, *ids, "UpdateIdGenerator", -1);
  }
};

// State-list adapter for a site's indexed store: its indexes are a pure
// cache over the relation, so snapshot and undo keep the relation and
// restore rebuilds the indexes.
struct IndexedStore {
  static Relation Save(const IndexedRelation& store) {
    return store.relation();
  }
  static void Restore(IndexedRelation& store, const Relation& saved) {
    store.RestoreRelation(saved);
  }
  static void Capture(UndoLog& undo, IndexedRelation& store,
                      EffectAtom atom);
  static bool Hash(StateHasher& h, const char* name,
                   const IndexedRelation& store, bool exact);
};

// Per-source storage-engine knobs.
struct SourceStorageOptions {
  // Maintain the IndexCatalog's hash indexes and answer incremental
  // queries by probing them. Off = the pre-storage-engine behaviour
  // (every query re-scans the relation); kept as an ablation/equivalence
  // switch — results are identical either way, only the cost differs.
  bool use_indexes = true;
};

class DataSource : public SourceSite {
 public:
  // `relation_index` is the position of this source's base relation in the
  // view chain. `warehouse_site` is where updates and answers are sent.
  DataSource(int site_id, int relation_index, Relation initial,
             const ViewDef* view, Network* network, int warehouse_site,
             UpdateIdGenerator* ids,
             SourceStorageOptions storage = SourceStorageOptions{});

  // Executes a source-local transaction atomically: applies every op in
  // order, logs the resulting delta, and ships it to the warehouse as a
  // single unit. No-op transactions (net-zero delta) are not shipped.
  // Returns the update id, or -1 for a net no-op.
  int64_t ApplyTransaction(const std::vector<UpdateOp>& ops);

  // Single-op conveniences.
  int64_t ApplyInsert(Tuple t);
  int64_t ApplyDelete(Tuple t);

  void OnMessage(int from, Message msg) override;

  // Registers an additional warehouse site; every subsequent update is
  // shipped to all registered warehouses (multi-view deployments where
  // several warehouses materialize different views over the same
  // sources). Queries are always answered to their sender.
  void AddWarehouse(int warehouse_site);

  // Crash-failure model (docs/fault_model.md). Crash() takes the site
  // down: volatile state — in-flight messages, session state, anything
  // being computed — is lost; the base relation and the committed update
  // log survive (they are the durable store a real source recovers from).
  // While crashed the site executes nothing: local transactions are
  // refused and the network drops traffic to and from it.
  void Crash();
  // Brings the site back under a new incarnation and replays every
  // committed update from the state log to all registered warehouses —
  // at-least-once recovery; warehouses discard the ids they already saw.
  void Restart();
  bool crashed() const { return crashed_; }
  // Update notifications re-sent by Restart() replays.
  int64_t updates_replayed() const { return updates_replayed_; }

  // SourceSite interface (single hosted relation).
  int64_t ApplyTxn(int relation_index,
                   const std::vector<UpdateOp>& ops) override;
  const StateLog& LogOf(int relation_index) const override;
  const Relation& RelationOf(int relation_index) const override;

  int site_id() const { return site_id_; }
  int relation_index() const { return relation_index_; }
  const Relation& relation() const { return store_.relation(); }
  const IndexedRelation& store() const { return store_; }
  const StateLog& log() const { return log_; }
  int64_t queries_answered() const { return queries_answered_; }

  // Index maintenance + query-path counters for this site.
  StorageStats storage_stats() const override;

  // Installs the undo log the mutation entry points capture into (see
  // common/undo.h). Null detaches.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Fixed("relation_index_", self.relation_index_);
    v.Protocol("store_", self.store_, IndexedStore{});
    v.Fixed("view_", self.view_);
    v.Fixed("network_", self.network_);
    v.Fixed("warehouse_sites_", self.warehouse_sites_);
    v.Fixed("ids_", self.ids_, SharedIdGenerator{});
    v.Fixed("storage_options_", self.storage_options_);
    v.Protocol("query_stats_", self.query_stats_, QueryCounts{});
    v.Protocol("log_", self.log_);
    v.Protocol("queries_answered_", self.queries_answered_);
    v.Protocol("crashed_", self.crashed_);
    v.Protocol("updates_replayed_", self.updates_replayed_);
    v.Fixed("undo_", self.undo_);
  }

 private:
  // Fingerprints the probe and scan-fallback counts of the query stats;
  // matches per probe are query history, not state.
  struct QueryCounts {
    static bool Hash(StateHasher& h, const char* name,
                     const StorageStats& stats, bool exact);
  };

  // Records the state list into the attached undo log; called at the top
  // of every mutation entry point.
  void CaptureUndo();

  int site_id_;
  int relation_index_;
  IndexedRelation store_;
  const ViewDef* view_;
  Network* network_;
  std::vector<int> warehouse_sites_;
  UpdateIdGenerator* ids_;
  SourceStorageOptions storage_options_;
  StorageStats query_stats_;
  StateLog log_;
  int64_t queries_answered_ = 0;
  bool crashed_ = false;
  int64_t updates_replayed_ = 0;
  UndoLog* undo_ = nullptr;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_DATA_SOURCE_H_
