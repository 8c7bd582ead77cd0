// Shared helpers for algorithm-level tests: the paper's Section 5.2
// three-source system and a small wiring harness with explicit control
// over latencies and update timing.

#ifndef SWEEPMV_TESTS_TEST_UTIL_H_
#define SWEEPMV_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "core/factory.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"

namespace sweepmv {
namespace testing_util {

// V = Π[D,F] (R1[A,B] ⋈(B=C) R2[C,D] ⋈(D=E) R3[E,F]) — the paper's view.
inline ViewDef PaperView() {
  return ViewDef::Builder()
      .AddRelation("R1", Schema::AllInts({"A", "B"}))
      .AddRelation("R2", Schema::AllInts({"C", "D"}))
      .AddRelation("R3", Schema::AllInts({"E", "F"}))
      .JoinOn(0, 1, 0)
      .JoinOn(1, 1, 0)
      .Project({3, 5})
      .Build();
}

// Figure 5's initial configuration.
inline std::vector<Relation> PaperBases(const ViewDef& view) {
  return {
      Relation::OfInts(view.rel_schema(0), {{1, 3}, {2, 3}}),
      Relation::OfInts(view.rel_schema(1), {{3, 7}}),
      Relation::OfInts(view.rel_schema(2), {{5, 6}, {7, 8}}),
  };
}

// A fully wired distributed system under test. Sources sit at site ids
// 1..n (ECA's single source, hosting the whole chain, at 1), the
// warehouse at 0.
class System {
 public:
  System(Algorithm algorithm, ViewDef view, std::vector<Relation> bases,
         LatencyModel latency = LatencyModel::Fixed(1000),
         WarehouseConfig config = WarehouseConfig{})
      : view_(std::move(view)),
        bases_(std::move(bases)),
        network_(&sim_, latency, /*seed=*/1) {
    const int n = view_.num_relations();
    const bool single_source = RequiresSingleSource(algorithm);
    per_site_ = single_source ? n : 1;
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) source_sites.push_back(1 + r / per_site_);
    for (int lo = 0; lo < n; lo += per_site_) {
      const int site = 1 + lo / per_site_;
      sources_.push_back(std::make_unique<DataSource>(
          site, lo,
          std::vector<Relation>(bases_.begin() + lo,
                                bases_.begin() + lo + per_site_),
          &view_, &network_, 0, &ids_,
          SourceStorageOptions{!single_source}));
      network_.RegisterSite(site, sources_.back().get());
    }
    warehouse_ = MakeWarehouse(algorithm, 0, view_, &network_,
                               source_sites, config);
    network_.RegisterSite(0, warehouse_.get());

    std::vector<const Relation*> rels;
    for (const Relation& r : bases_) rels.push_back(&r);
    warehouse_->InitializeView(view_.EvaluateFull(rels));
    warehouse_->InitializeAuxiliary(bases_);
  }

  // Schedules a single-op transaction at virtual time `at`.
  void ScheduleInsert(SimTime at, int rel, Tuple t) {
    ScheduleTxn(at, rel, {UpdateOp::Insert(std::move(t))});
  }
  void ScheduleDelete(SimTime at, int rel, Tuple t) {
    ScheduleTxn(at, rel, {UpdateOp::Delete(std::move(t))});
  }
  void ScheduleTxn(SimTime at, int rel, std::vector<UpdateOp> ops) {
    DataSource* source = SourceOf(rel);
    sim_.ScheduleAt(at, [source, rel, ops]() { source->ApplyTxn(rel, ops); });
  }

  void Run() { sim_.Run(); }

  // Recomputes the expected view from the sources' current states.
  Relation ExpectedView() const {
    std::vector<const Relation*> rels;
    for (int r = 0; r < view_.num_relations(); ++r) {
      rels.push_back(&SourceOf(r)->relation(r));
    }
    return view_.EvaluateFull(rels);
  }

  std::vector<const StateLog*> SourceLogs() const {
    std::vector<const StateLog*> logs;
    for (int r = 0; r < view_.num_relations(); ++r) {
      logs.push_back(&SourceOf(r)->log(r));
    }
    return logs;
  }

  Simulator& sim() { return sim_; }
  Network& network() { return network_; }
  Warehouse& warehouse() { return *warehouse_; }
  const ViewDef& view_def() const { return view_; }

 private:
  // The site hosting chain relation `rel`.
  DataSource* SourceOf(int rel) const {
    return sources_[static_cast<size_t>(rel / per_site_)].get();
  }

  ViewDef view_;
  std::vector<Relation> bases_;
  Simulator sim_;
  Network network_;
  UpdateIdGenerator ids_;
  int per_site_ = 1;
  std::vector<std::unique_ptr<DataSource>> sources_;
  std::unique_ptr<Warehouse> warehouse_;
};

}  // namespace testing_util
}  // namespace sweepmv

#endif  // SWEEPMV_TESTS_TEST_UTIL_H_
