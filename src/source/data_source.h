// A data-source site: one or more base relations plus the paper's Update
// & Query Server (Figure 3).
//
// The paper's model (Section 2): "Each data source may store any number
// of base relations, but conceptually we assume a single base relation
// R_i at data source i." A DataSource hosts a contiguous range of the
// view's chain relations, each an IndexedRelation plus its StateLog: one
// relation (the conceptual model), several co-hosted relations (the
// general form), or the whole chain (ECA's centralized source, Section
// 3). Harnesses and checkers treat every topology alike.
//
// The server has two duties:
//   * SendUpdates — every locally executed transaction is forwarded to the
//     warehouse as one atomic unit (an UpdateMessage);
//   * ProcessQuery — an incremental query from the warehouse (a partial
//     delta) is joined with the *current* local relation and sent back.
//     A site hosting the whole chain also evaluates ECA's signed-term
//     queries, each against one consistent local state.
// Requests are serviced sequentially and the join is synchronized with
// local update transactions, which the single-threaded simulator gives us
// for free: each event runs to completion.
//
// Co-hosted relations share the site's FIFO channel to the warehouse, and
// a transaction touches one relation (source-local; global transactions
// across relations stay out of scope, as in the paper). SWEEP's
// compensation argument is unaffected: FIFO per link still delivers an
// update of R_j applied before a query for R_j was evaluated ahead of the
// answer; co-hosting only adds unrelated traffic to the link.

#ifndef SWEEPMV_SOURCE_DATA_SOURCE_H_
#define SWEEPMV_SOURCE_DATA_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/state.h"
#include "common/undo.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "sim/site.h"
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
  static void Capture(UndoLog& undo, UpdateIdGenerator* ids) {
    CaptureState(undo, *ids);
  }
};

// State-list adapter for a site's indexed stores: their indexes are a
// pure cache over the relations, so snapshot and undo keep the relations
// and restore rebuilds the indexes.
struct IndexedStores {
  static std::vector<Relation> Save(
      const std::vector<IndexedRelation>& stores);
  static void Restore(std::vector<IndexedRelation>& stores,
                      const std::vector<Relation>& saved);
  static void Capture(UndoLog& undo, std::vector<IndexedRelation>& stores);
  static void Hash(StateHasher& h, const char* name,
                   const std::vector<IndexedRelation>& stores, bool exact);
};

// Per-source storage-engine knobs.
struct SourceStorageOptions {
  // Maintain the IndexCatalog's hash indexes and answer incremental
  // queries by probing them. Off = the pre-storage-engine behaviour
  // (every query re-scans the relation); kept as an ablation/equivalence
  // switch — results are identical either way, only the cost differs.
  bool use_indexes = true;
};

class DataSource : public Site {
 public:
  // Hosts chain relations first_relation .. first_relation +
  // initial.size() - 1, starting from `initial`. `warehouse_site` is
  // where updates and answers are sent.
  DataSource(int site_id, int first_relation, std::vector<Relation> initial,
             const ViewDef* view, Network* network, int warehouse_site,
             UpdateIdGenerator* ids,
             SourceStorageOptions storage = SourceStorageOptions{});
  // Hosts the one chain relation `relation_index`.
  DataSource(int site_id, int relation_index, Relation initial,
             const ViewDef* view, Network* network, int warehouse_site,
             UpdateIdGenerator* ids,
             SourceStorageOptions storage = SourceStorageOptions{});

  // Executes a source-local transaction against hosted relation
  // `relation_index` atomically: applies every op in order, logs the
  // resulting delta, and ships it to the warehouses as a single unit.
  // No-op transactions (net-zero delta) are not shipped. Returns the
  // update id, or -1 for a net no-op or a crashed site. Aborts if this
  // site does not host the relation.
  int64_t ApplyTxn(int relation_index, const std::vector<UpdateOp>& ops);

  // Conveniences for a site hosting one relation.
  int64_t ApplyTransaction(const std::vector<UpdateOp>& ops) {
    return ApplyTxn(SoleRelation(), ops);
  }
  int64_t ApplyInsert(Tuple t) {
    return ApplyTransaction({UpdateOp::Insert(std::move(t))});
  }
  int64_t ApplyDelete(Tuple t) {
    return ApplyTransaction({UpdateOp::Delete(std::move(t))});
  }

  void OnMessage(int from, Message msg) override;

  // Registers an additional warehouse site; every subsequent update is
  // shipped to all registered warehouses (multi-view deployments where
  // several warehouses materialize different views over the same
  // sources). Queries are always answered to their sender.
  void AddWarehouse(int warehouse_site);

  // Crash-failure model (docs/fault_model.md). Crash() takes the site
  // down: volatile state — in-flight messages, session state, anything
  // being computed — is lost; the base relations and the committed
  // update logs survive (they are the durable store a real source
  // recovers from). While crashed the site executes nothing: local
  // transactions are refused and the network drops traffic to and from
  // it.
  void Crash();
  // Brings the site back under a new incarnation and replays every
  // committed update from the state logs to all registered warehouses —
  // at-least-once recovery; warehouses discard the ids they already saw.
  void Restart();
  bool crashed() const { return crashed_; }
  // Update notifications re-sent by Restart() replays.
  int64_t updates_replayed() const { return updates_replayed_; }

  int site_id() const { return site_id_; }
  // Chain indices hosted here, ascending.
  std::vector<int> hosted_relations() const;
  // Ground-truth log / current state of a hosted relation.
  const StateLog& log(int relation_index) const;
  const Relation& relation(int relation_index) const;
  // The same, for a site hosting one relation.
  const StateLog& log() const { return log(SoleRelation()); }
  const Relation& relation() const { return relation(SoleRelation()); }
  int64_t queries_answered() const { return queries_answered_; }

  // Index maintenance + query-path counters across hosted relations
  // (all zero with indexes off and no incremental queries answered).
  StorageStats storage_stats() const;

  // Installs the undo log the mutation entry points capture into (see
  // common/undo.h). Null detaches.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Fixed("first_relation_", self.first_relation_);
    v.Protocol("stores_", self.stores_, IndexedStores{});
    v.Fixed("view_", self.view_);
    v.Fixed("network_", self.network_);
    v.Fixed("warehouse_sites_", self.warehouse_sites_);
    v.Fixed("ids_", self.ids_, SharedIdGenerator{});
    v.Fixed("storage_options_", self.storage_options_);
    v.Protocol("query_stats_", self.query_stats_, QueryCounts{});
    v.Protocol("logs_", self.logs_);
    v.Protocol("queries_answered_", self.queries_answered_);
    v.Protocol("crashed_", self.crashed_);
    v.Protocol("updates_replayed_", self.updates_replayed_);
    v.Fixed("undo_", self.undo_);
  }

 private:
  // Fingerprints the probe and scan-fallback counts of the query stats;
  // matches per probe are query history, not state.
  struct QueryCounts {
    static void Hash(StateHasher& h, const char* name,
                     const StorageStats& stats, bool exact);
  };

  // Records the state list into the attached undo log; called at the top
  // of every mutation entry point.
  void CaptureUndo();

  // Position of hosted relation `relation_index` in stores_ and logs_;
  // aborts if this site does not host it.
  size_t Slot(int relation_index) const;
  // The chain index of the one relation hosted here; aborts if several.
  int SoleRelation() const;

  // Evaluates one signed ECA term: positions fixed by the term use its
  // deltas, the rest use this site's current relations. The result spans
  // the full joined schema (selection/projection are the warehouse's
  // job).
  Relation EvaluateTerm(const EcaTerm& term) const;

  int site_id_;
  int first_relation_;
  // stores_[i] and logs_[i] belong to chain relation first_relation_ + i.
  std::vector<IndexedRelation> stores_;
  const ViewDef* view_;
  Network* network_;
  std::vector<int> warehouse_sites_;
  UpdateIdGenerator* ids_;
  SourceStorageOptions storage_options_;
  StorageStats query_stats_;
  std::vector<StateLog> logs_;
  int64_t queries_answered_ = 0;
  bool crashed_ = false;
  int64_t updates_replayed_ = 0;
  UndoLog* undo_ = nullptr;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_DATA_SOURCE_H_
