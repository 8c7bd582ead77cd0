#include "source/eca_source.h"

#include "common/check.h"
#include "relational/operators.h"

namespace sweepmv {

EcaSource::EcaSource(int site_id, std::vector<Relation> initial_relations,
                     const ViewDef* view, Network* network,
                     int warehouse_site, UpdateIdGenerator* ids)
    : site_id_(site_id),
      relations_(std::move(initial_relations)),
      view_(view),
      network_(network),
      warehouse_site_(warehouse_site),
      ids_(ids) {
  SWEEP_CHECK(view != nullptr && network != nullptr && ids != nullptr);
  SWEEP_CHECK(static_cast<int>(relations_.size()) == view->num_relations());
  logs_.resize(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    SWEEP_CHECK_MSG(!relations_[i].HasNegative(),
                    "base relations must have positive counts");
    logs_[i].SetInitial(relations_[i]);
  }
}

void EcaSource::CaptureUndo() {
  if (undo_ == nullptr) return;
  const int s = site_id_;
  ids_->CaptureUndo(*undo_);
  undo_->CaptureValue(&relations_, {"EcaSource", "relations_", s});
  undo_->CaptureValue(&logs_, {"EcaSource", "logs_", s});
  undo_->CaptureValue(&queries_answered_,
                      {"EcaSource", "queries_answered_", s});
}

void EcaSource::DescribeState(StateHasher& h) const {
  h.I64("eca.site", site_id_);
  h.U64("eca.relations", relations_.size());
  for (const Relation& rel : relations_) {
    AbsorbRelation(h, "eca.relation", rel);
  }
  for (const StateLog& log : logs_) {
    AbsorbStateLog(h, "eca.log", log);
  }
  h.I64("eca.answered", queries_answered_);
}

int64_t EcaSource::ApplyTransaction(int relation_index,
                                    const std::vector<UpdateOp>& ops) {
  CaptureUndo();
  SWEEP_CHECK(relation_index >= 0 &&
              relation_index < view_->num_relations());
  Relation delta = OpsToDelta(view_->rel_schema(relation_index), ops);
  if (delta.Empty()) return -1;

  Relation& rel = relations_[static_cast<size_t>(relation_index)];
  rel.Merge(delta);
  CheckDeltaApplied(rel, delta);

  Update update;
  update.id = ids_->Next();
  update.relation = relation_index;
  update.delta = std::move(delta);
  update.applied_at = network_->simulator()->now();
  logs_[static_cast<size_t>(relation_index)].Append(
      update.id, update.delta, update.applied_at);

  int64_t id = update.id;
  network_->Send(site_id_, warehouse_site_,
                 UpdateMessage{std::move(update)});
  return id;
}

void EcaSource::OnMessage(int from, Message msg) {
  CaptureUndo();
  if (auto* query = std::get_if<EcaQueryRequest>(&msg)) {
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
    for (size_t r = 0; r < relations_.size(); ++r) {
      network_->Send(site_id_, from,
                     SnapshotAnswer{snap->query_id, static_cast<int>(r),
                                    relations_[r], snap->epoch});
    }
    return;
  }
  SWEEP_CHECK_MSG(false, "ECA source received an unexpected message type");
}

Relation EcaSource::EvaluateTerm(const EcaTerm& term) const {
  SWEEP_CHECK(term.fixed.size() == relations_.size());
  auto input = [&](int rel) -> const Relation& {
    const auto& fixed = term.fixed[static_cast<size_t>(rel)];
    return fixed.has_value() ? *fixed
                             : relations_[static_cast<size_t>(rel)];
  };
  Relation acc = input(0);
  for (int rel = 1; rel < view_->num_relations(); ++rel) {
    acc = Join(acc, input(rel), view_->ExtendRightKeys(0, rel));
  }
  return acc;
}

const Relation& EcaSource::relation(int relation_index) const {
  SWEEP_CHECK(relation_index >= 0 &&
              relation_index < static_cast<int>(relations_.size()));
  return relations_[static_cast<size_t>(relation_index)];
}

const StateLog& EcaSource::log(int relation_index) const {
  SWEEP_CHECK(relation_index >= 0 &&
              relation_index < static_cast<int>(logs_.size()));
  return logs_[static_cast<size_t>(relation_index)];
}

EcaSource::SavedState EcaSource::SaveState() const {
  SavedState state;
  state.relations = relations_;
  state.logs = logs_;
  state.queries_answered = queries_answered_;
  return state;
}

void EcaSource::RestoreState(const SavedState& state) {
  relations_ = state.relations;
  logs_ = state.logs;
  queries_answered_ = state.queries_answered;
}

}  // namespace sweepmv
