#include "core/eca.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

EcaWarehouse::EcaWarehouse(int site_id, ViewDef view_def, Network* network,
                           std::vector<int> source_sites,
                           EcaOptions options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options.base),
      compensation_(options.compensation),
      pending_delta_(this->view_def().view_schema()) {}

EcaWarehouse::EcaWarehouse(int site_id, ViewDef view_def, Network* network,
                           std::vector<int> source_sites, Options options)
    : EcaWarehouse(site_id, std::move(view_def), network,
                   std::move(source_sites), EcaOptions{options, true}) {}

void EcaWarehouse::HandleUpdateArrival() { MaybeStartNext(); }

void EcaWarehouse::MaybeStartNext() {
  if (active_.has_value() || mutable_queue().empty()) return;

  Update update = std::move(mutable_queue().front());
  mutable_queue().pop_front();

  ActiveQuery query;
  query.update_id = update.id;
  query.rel = update.relation;
  query.delta = std::move(update.delta);

  const int n = view_def().num_relations();
  std::vector<EcaTerm> terms;

  // Base term: Δ_u ⋈ (everything else from the source's current state).
  EcaTerm base;
  base.sign = 1;
  base.fixed.resize(static_cast<size_t>(n));
  base.fixed[static_cast<size_t>(query.rel)] = query.delta;
  terms.push_back(base);
  query.sent_terms.push_back(
      OffsetTerm{1, {{query.rel, query.delta}}});

  // Offset terms: one per recorded contamination of this update by a
  // previous answer, with the opposite sign.
  auto it = offsets_.find(query.update_id);
  if (compensation_ && it != offsets_.end()) {
    for (const OffsetTerm& offset : it->second) {
      EcaTerm term;
      term.sign = -offset.sign;
      term.fixed.resize(static_cast<size_t>(n));
      OffsetTerm sent{-offset.sign, offset.deltas};
      for (const auto& [rel, delta] : offset.deltas) {
        SWEEP_CHECK(rel != query.rel);
        term.fixed[static_cast<size_t>(rel)] = delta;
      }
      term.fixed[static_cast<size_t>(query.rel)] = query.delta;
      sent.deltas.emplace(query.rel, query.delta);
      terms.push_back(std::move(term));
      query.sent_terms.push_back(std::move(sent));
    }
    offsets_.erase(it);
  }

  int64_t term_count = static_cast<int64_t>(terms.size());
  total_query_terms_ += term_count;
  max_query_terms_ = std::max(max_query_terms_, term_count);

  query.query_id = SendEcaQuery(std::move(terms));
  active_ = std::move(query);
}

void EcaWarehouse::HandleEcaAnswer(EcaQueryAnswer answer) {
  SWEEP_CHECK(active_.has_value());
  SWEEP_CHECK_MSG(answer.query_id == active_->query_id,
                  "answer does not match the outstanding ECA query");

  // Accumulate the finished view delta in the action list.
  pending_delta_.Merge(view_def().FinishFullSpan(std::move(answer.result)));
  pending_ids_.push_back(active_->update_id);

  // Contamination propagation: every update still queued now was, by
  // FIFO, applied at the source before our query evaluated, so each term
  // we shipped picked up an error component with that update's delta.
  if (compensation_) {
    for (const Update& w : mutable_queue()) {
      for (const OffsetTerm& sent : active_->sent_terms) {
        if (sent.deltas.count(w.relation) != 0) continue;
        offsets_[w.id].push_back(sent);
      }
    }
  }

  active_.reset();
  TryInstall();
  MaybeStartNext();
}

void EcaWarehouse::TryInstall() {
  if (active_.has_value() || !mutable_queue().empty()) return;
  if (pending_ids_.empty()) return;
  InstallViewDelta(std::move(pending_delta_), std::move(pending_ids_));
  pending_delta_ = Relation(view_def().view_schema());
  pending_ids_.clear();
  ++batch_installs_;
  SWEEP_LOG(Debug) << "ECA installed a quiescent batch";
}

std::shared_ptr<const Warehouse::AlgState> EcaWarehouse::SaveAlgState()
    const {
  Saved s;
  s.active = active_;
  s.offsets = offsets_;
  s.pending_delta = pending_delta_;
  s.pending_ids = pending_ids_;
  s.max_query_terms = max_query_terms_;
  s.total_query_terms = total_query_terms_;
  s.batch_installs = batch_installs_;
  return std::make_shared<TypedAlgState<Saved>>(std::move(s));
}

void EcaWarehouse::RestoreAlgState(const AlgState& state) {
  const Saved& s = AlgStateAs<Saved>(state);
  active_ = s.active;
  offsets_ = s.offsets;
  pending_delta_ = s.pending_delta;
  pending_ids_ = s.pending_ids;
  max_query_terms_ = s.max_query_terms;
  total_query_terms_ = s.total_query_terms;
  batch_installs_ = s.batch_installs;
}

void EcaWarehouse::CaptureUndoAlgState(UndoLog& undo) {
  undo.CaptureValue(&active_, {"EcaWarehouse", "active_", site_id()});
  undo.CaptureValue(&offsets_, {"EcaWarehouse", "offsets_", site_id()});
  undo.CaptureValue(&pending_delta_,
                    {"EcaWarehouse", "pending_delta_", site_id()});
  undo.CaptureValue(&pending_ids_,
                    {"EcaWarehouse", "pending_ids_", site_id()});
  undo.CaptureValue(&max_query_terms_,
                    {"EcaWarehouse", "max_query_terms_", site_id()});
  undo.CaptureValue(&total_query_terms_,
                    {"EcaWarehouse", "total_query_terms_", site_id()});
  undo.CaptureValue(&batch_installs_,
                    {"EcaWarehouse", "batch_installs_", site_id()});
}

void EcaWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  auto write_term = [&w](const OffsetTerm& term) {
    w.WriteI32(term.sign);
    w.WriteI64(static_cast<int64_t>(term.deltas.size()));
    for (const auto& [rel, relation] : term.deltas) {
      w.WriteI32(rel);
      w.WriteRelation(relation);
    }
  };
  w.WriteBool(active_.has_value());
  if (active_.has_value()) {
    w.WriteI64(active_->query_id);
    w.WriteI64(active_->update_id);
    w.WriteI32(active_->rel);
    w.WriteRelation(active_->delta);
    w.WriteI64(static_cast<int64_t>(active_->sent_terms.size()));
    for (const OffsetTerm& term : active_->sent_terms) write_term(term);
  }
  w.WriteI64(static_cast<int64_t>(offsets_.size()));
  for (const auto& [update_id, terms] : offsets_) {
    w.WriteI64(update_id);
    w.WriteI64(static_cast<int64_t>(terms.size()));
    for (const OffsetTerm& term : terms) write_term(term);
  }
  w.WriteRelation(pending_delta_);
  w.WriteI64(static_cast<int64_t>(pending_ids_.size()));
  for (int64_t id : pending_ids_) w.WriteI64(id);
  w.WriteI64(max_query_terms_);
  w.WriteI64(total_query_terms_);
  w.WriteI64(batch_installs_);
}

void EcaWarehouse::DeserializeAlgState(CheckpointReader& r) {
  auto read_term = [&r]() {
    OffsetTerm term;
    term.sign = r.ReadI32();
    const int64_t deltas = r.ReadI64();
    for (int64_t i = 0; i < deltas; ++i) {
      const int rel = r.ReadI32();
      term.deltas.emplace(rel, r.ReadRelation());
    }
    return term;
  };
  active_.reset();
  if (r.ReadBool()) {
    ActiveQuery active;
    active.query_id = r.ReadI64();
    active.update_id = r.ReadI64();
    active.rel = r.ReadI32();
    active.delta = r.ReadRelation();
    const int64_t terms = r.ReadI64();
    for (int64_t i = 0; i < terms; ++i) {
      active.sent_terms.push_back(read_term());
    }
    active_ = std::move(active);
  }
  offsets_.clear();
  const int64_t offset_entries = r.ReadI64();
  for (int64_t i = 0; i < offset_entries; ++i) {
    const int64_t update_id = r.ReadI64();
    std::vector<OffsetTerm>& terms = offsets_[update_id];
    const int64_t count = r.ReadI64();
    for (int64_t j = 0; j < count; ++j) terms.push_back(read_term());
  }
  pending_delta_ = r.ReadRelation();
  pending_ids_.clear();
  const int64_t ids = r.ReadI64();
  for (int64_t i = 0; i < ids; ++i) pending_ids_.push_back(r.ReadI64());
  max_query_terms_ = r.ReadI64();
  total_query_terms_ = r.ReadI64();
  batch_installs_ = r.ReadI64();
}

}  // namespace sweepmv
