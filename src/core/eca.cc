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

}  // namespace sweepmv
