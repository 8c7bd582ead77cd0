// ECA's data source: a single autonomous site storing *all* base relations.
//
// The ECA algorithm [ZGMHW95] targets the restricted architecture the
// paper discusses in Section 3: one data source holding every base
// relation, so that a whole incremental query evaluates atomically against
// one consistent local state. EcaSource provides that site: it applies
// transactions against any of its relations (forwarding each to the
// warehouse, as Figure 3's server does) and evaluates signed-term queries
// in one event.

#ifndef SWEEPMV_SOURCE_ECA_SOURCE_H_
#define SWEEPMV_SOURCE_ECA_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/state.h"
#include "common/undo.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "source/data_source.h"
#include "source/source_site.h"
#include "source/state_log.h"
#include "source/update.h"

namespace sweepmv {

class EcaSource : public SourceSite {
 public:
  EcaSource(int site_id, std::vector<Relation> initial_relations,
            const ViewDef* view, Network* network, int warehouse_site,
            UpdateIdGenerator* ids);

  // Applies a transaction to relation `relation_index` atomically and
  // ships it to the warehouse. Returns the update id (-1 for a net no-op).
  int64_t ApplyTransaction(int relation_index,
                           const std::vector<UpdateOp>& ops);

  void OnMessage(int from, Message msg) override;

  // SourceSite interface.
  int64_t ApplyTxn(int relation_index,
                   const std::vector<UpdateOp>& ops) override {
    return ApplyTransaction(relation_index, ops);
  }
  const StateLog& LogOf(int relation_index) const override {
    return log(relation_index);
  }
  const Relation& RelationOf(int relation_index) const override {
    return relation(relation_index);
  }

  const Relation& relation(int relation_index) const;
  const StateLog& log(int relation_index) const;
  int64_t queries_answered() const { return queries_answered_; }

  // Installs the undo log the mutation entry points capture into (see
  // common/undo.h). Null detaches.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("site_id_", self.site_id_);
    v.Protocol("relations_", self.relations_);
    v.Fixed("view_", self.view_);
    v.Fixed("network_", self.network_);
    v.Fixed("warehouse_site_", self.warehouse_site_);
    v.Fixed("ids_", self.ids_, SharedIdGenerator{});
    v.Protocol("logs_", self.logs_);
    v.Protocol("queries_answered_", self.queries_answered_);
    v.Fixed("undo_", self.undo_);
  }

 private:
  // Records the state list into the attached undo log; called at the top
  // of every mutation entry point.
  void CaptureUndo();

  // Evaluates one signed term: positions fixed by the term use its deltas,
  // the rest use this site's current base relations. Result spans the full
  // joined schema (selection/projection are the warehouse's job).
  Relation EvaluateTerm(const EcaTerm& term) const;

  int site_id_;
  std::vector<Relation> relations_;
  const ViewDef* view_;
  Network* network_;
  int warehouse_site_;
  UpdateIdGenerator* ids_;
  std::vector<StateLog> logs_;
  int64_t queries_answered_ = 0;
  UndoLog* undo_ = nullptr;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_ECA_SOURCE_H_
