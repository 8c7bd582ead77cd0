// ECA — baseline [ZGMHW95], the single-source algorithm of Section 3.
//
// Architecture: one data source holds every base relation, so a whole
// incremental query is evaluated atomically against one consistent state;
// the only anomaly left is updates racing the query on the wire. ECA
// compensates *in the query formulation*: the query for update ΔR_k
// carries, besides the base term ΔR_k ⋈ (other relations), a signed offset
// term for every contamination a previous answer is known to have
// introduced — e.g. Q2 = (R1 ⋈ ΔR2 ⋈ R3) − (ΔR1 ⋈ ΔR2 ⋈ R3) in the paper's
// example. The warehouse tracks, per queued update w, the signed delta
// products P whose terms were evaluated while w was already applied at the
// source (detectable by FIFO: w's notification is in the queue when the
// answer arrives); Q_w then subtracts s·(P ∪ {Δ_w} ⋈ rest) for each. This
// generalizes the paper's two-update example by inclusion–exclusion; the
// query *size* grows with the number of interfering updates — the paper
// calls it quadratic; bench E3 measures the actual growth — while the
// message *count* stays O(1) per update (Table 1). Answers accumulate in
// an action list installed at quiescence: strong consistency, quiescence
// required.

#ifndef SWEEPMV_CORE_ECA_H_
#define SWEEPMV_CORE_ECA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class EcaWarehouse : public Warehouse {
 public:
  struct EcaOptions {
    Options base;
    // Ablation switch: with the compensating offset terms off, queries
    // carry only the base term and answers contaminated by concurrent
    // updates are applied raw — the update-anomaly ECA was invented to
    // fix, and the naive maintenance the schedule-space explorer
    // (src/verify/) exhibits a counterexample for. Never disable in real
    // use.
    bool compensation = true;
  };

  EcaWarehouse(int site_id, ViewDef view_def, Network* network,
               std::vector<int> source_sites, EcaOptions options);

  EcaWarehouse(int site_id, ViewDef view_def, Network* network,
               std::vector<int> source_sites, Options options = Options{});

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "ECA"; }

  // Largest number of terms a single query carried.
  int64_t max_query_terms() const { return max_query_terms_; }
  // Total terms shipped across all queries.
  int64_t total_query_terms() const { return total_query_terms_; }
  int64_t batch_installs() const { return batch_installs_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("compensation_", self.compensation_);
    v.Protocol("active_", self.active_);
    v.Protocol("offsets_", self.offsets_);
    v.Protocol("pending_delta_", self.pending_delta_);
    v.Protocol("pending_ids_", self.pending_ids_);
    v.Protocol("max_query_terms_", self.max_query_terms_);
    v.Protocol("total_query_terms_", self.total_query_terms_);
    v.Protocol("batch_installs_", self.batch_installs_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleEcaAnswer(EcaQueryAnswer answer) override;

 private:
  // A signed product of deltas pinned at their positions.
  struct OffsetTerm {
    int sign = 1;
    std::map<int, Relation> deltas;

    bool operator==(const OffsetTerm&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("sign", self.sign);
      v.Protocol("deltas", self.deltas);
    }
  };

  struct ActiveQuery {
    int64_t query_id = -1;
    int64_t update_id = -1;
    int rel = -1;
    Relation delta;
    // The signed pin sets of the terms we shipped (each includes Δ_u);
    // used to propagate contamination records onto still-queued updates.
    std::vector<OffsetTerm> sent_terms;

    bool operator==(const ActiveQuery&) const = default;

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("query_id", self.query_id);
      v.Protocol("update_id", self.update_id);
      v.Protocol("rel", self.rel);
      v.Protocol("delta", self.delta);
      v.Protocol("sent_terms", self.sent_terms);
    }
  };

  void MaybeStartNext();
  void TryInstall();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this, "EcaWarehouse");
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this, "EcaWarehouse");
  }

  // Experiment knob, fixed at construction.
  bool compensation_ = true;
  std::optional<ActiveQuery> active_;
  // Contamination records per queued update id.
  std::map<int64_t, std::vector<OffsetTerm>> offsets_;
  // Action list: finished view deltas awaiting a quiescent install.
  Relation pending_delta_;
  std::vector<int64_t> pending_ids_;
  int64_t max_query_terms_ = 0;
  int64_t total_query_terms_ = 0;
  int64_t batch_installs_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_ECA_H_
