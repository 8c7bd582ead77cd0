// Recompute — the convergence-only baseline.
//
// Stands in for commercial refresh-style products (the paper cites Red
// Brick [RBS96] as ensuring convergence only): on update arrival the
// warehouse drains its queue, pulls a fresh snapshot of every base
// relation, recomputes the view from scratch and installs it. Because the
// snapshots race ongoing updates, intermediate installed states need not
// correspond to any delivery-order prefix — only the final state (after
// quiescence) is guaranteed correct. Message cost is n snapshot round
// trips per batch, payload the entire database.

#ifndef SWEEPMV_CORE_RECOMPUTE_H_
#define SWEEPMV_CORE_RECOMPUTE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class RecomputeWarehouse : public Warehouse {
 public:
  RecomputeWarehouse(int site_id, ViewDef view_def, Network* network,
                     std::vector<int> source_sites,
                     Options options = Options{});

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "Recompute"; }

  int64_t recomputations() const { return recomputations_; }

  // The algorithm half of the state list (common/state.h).
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("active_", self.active_);
    v.Protocol("recomputations_", self.recomputations_);
  }

 protected:
  void HandleUpdateArrival() override;
  void HandleSnapshotAnswer(SnapshotAnswer answer) override;

 private:
  struct ActiveRecompute {
    std::vector<int64_t> update_ids;
    std::map<int, Relation> snapshots;  // relation index -> snapshot

    template <class Self, class V>
    static void VisitState(Self& self, V& v) {
      v.Protocol("update_ids", self.update_ids);
      v.Protocol("snapshots", self.snapshots);
    }
  };

  void MaybeStartNext();

  void VisitAlgState(const AlgVisitor& v) override {
    v.Visit(*this);
  }
  void VisitAlgState(const ConstAlgVisitor& v) const override {
    v.Visit(*this);
  }

  std::optional<ActiveRecompute> active_;
  int64_t recomputations_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_RECOMPUTE_H_
