#include "verify/scenarios.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace sweepmv {

ViewDef PaperView() {
  return ViewDef::Builder()
      .AddRelation("R1", Schema::AllInts({"A", "B"}))
      .AddRelation("R2", Schema::AllInts({"C", "D"}))
      .AddRelation("R3", Schema::AllInts({"E", "F"}))
      .JoinOn(0, 1, 0)
      .JoinOn(1, 1, 0)
      .Project({3, 5})
      .Build();
}

std::vector<Relation> PaperBases(const ViewDef& view) {
  return {
      Relation::OfInts(view.rel_schema(0), {{1, 3}, {2, 3}}),
      Relation::OfInts(view.rel_schema(1), {{3, 7}}),
      Relation::OfInts(view.rel_schema(2), {{5, 6}, {7, 8}}),
  };
}

ControlledScenario PaperExampleScenario(Algorithm algorithm) {
  ViewDef view = PaperView();
  std::vector<Relation> bases = PaperBases(view);
  ControlledScenario scenario{algorithm, std::move(view),
                              std::move(bases),
                              {
                                  {1, {UpdateOp::Insert(IntTuple({3, 5}))}},
                                  {2, {UpdateOp::Delete(IntTuple({7, 8}))}},
                                  {0, {UpdateOp::Delete(IntTuple({2, 3}))}},
                              },
                              WarehouseConfig{},
                              /*latency=*/1000};
  return scenario;
}

ControlledScenario EcaAnomalyScenario(bool compensation) {
  ViewDef view = PaperView();
  std::vector<Relation> bases = PaperBases(view);
  ControlledScenario scenario{Algorithm::kEca, std::move(view),
                              std::move(bases),
                              {
                                  {1, {UpdateOp::Insert(IntTuple({3, 5}))}},
                                  {0, {UpdateOp::Insert(IntTuple({9, 3}))}},
                              },
                              WarehouseConfig{},
                              /*latency=*/1000};
  scenario.warehouse.eca_compensation = compensation;
  return scenario;
}

ControlledScenario FaultyPaperExampleScenario(Algorithm algorithm) {
  ControlledScenario scenario = PaperExampleScenario(algorithm);
  // Cadence 2 exercises all three recovery paths in one scenario: the
  // checkpoint restore, a non-empty WAL replay, and in-flight query
  // re-issue under the new epoch.
  scenario.warehouse.base.checkpoint_every = 2;
  scenario.warehouse_crashes = 1;
  return scenario;
}

ControlledScenario UnfilteredRecoveryScenario() {
  // Pipelined SWEEP is the algorithm where the epoch filter is load-
  // bearing: query-id assignment depends on answer arrival order, so
  // after recovery rewinds the id counter, id k can name a different
  // sweep's hop than it did in the dead incarnation. Two updates on the
  // same relation give the two concurrent sweeps identical span
  // evolution, so the mix-up corrupts the view silently instead of
  // tripping a span check. (Sequential SWEEP is immune — its id-to-query
  // mapping is deterministic — which the filter-on certifications show.)
  ViewDef view = PaperView();
  std::vector<Relation> bases = PaperBases(view);
  ControlledScenario scenario{Algorithm::kPipelinedSweep, std::move(view),
                              std::move(bases),
                              {
                                  {1, {UpdateOp::Insert(IntTuple({3, 5}))}},
                                  {1, {UpdateOp::Insert(IntTuple({3, 7}))}},
                              },
                              WarehouseConfig{},
                              /*latency=*/1000};
  // Cadence 1 keeps the durable image current with every arrival, so the
  // only divergence between the dead and restored incarnations is which
  // concurrent sweep claims the next query id — exactly the hazard the
  // epoch filter closes. (A staler checkpoint would also rewind past
  // arrivals and the collision could cross span shapes, turning the
  // anomaly into a loud span-check failure instead of silent corruption.)
  scenario.warehouse.base.checkpoint_every = 1;
  scenario.warehouse.base.filter_stale_epochs = false;
  scenario.warehouse_crashes = 1;
  return scenario;
}

ControlledScenario GeneratedMultiViewScenario(Algorithm primary,
                                              Algorithm second,
                                              int updates, bool crash) {
  SWEEP_CHECK(updates >= 1);
  ViewDef view = PaperView();
  std::vector<Relation> bases = PaperBases(view);
  // Round-robin join-relevant insertions: every generated tuple touches
  // the join keys the initial bases already chain through (B=3, C=3,
  // E=5), so each update drives real incremental maintenance — sweeps
  // that query the other sources — instead of dying in an empty join.
  std::vector<ControlledTxn> txns;
  for (int i = 0; i < updates; ++i) {
    const int rel = i % 3;
    switch (rel) {
      case 0:
        txns.push_back({0, {UpdateOp::Insert(IntTuple({10 + i, 3}))}});
        break;
      case 1:
        txns.push_back({1, {UpdateOp::Insert(IntTuple({3, 5}))}});
        break;
      default:
        txns.push_back({2, {UpdateOp::Insert(IntTuple({5, 40 + i}))}});
        break;
    }
  }
  ControlledScenario scenario{primary,
                              std::move(view),
                              std::move(bases),
                              std::move(txns),
                              WarehouseConfig{},
                              /*latency=*/1000};
  scenario.extra_warehouses.push_back(second);
  if (crash) {
    scenario.warehouse.base.checkpoint_every = 2;
    // Two crash choice points, not one: each crash placement is a fresh
    // degree of schedule freedom, and schedules that crash at different
    // points converge to identical states once recovery completes — the
    // double crash is what makes this space both huge (millions of
    // interleavings at updates=1) and diamond-rich enough for the
    // visited-state table to collapse it by an order of magnitude.
    scenario.warehouse_crashes = 2;
  }
  return scenario;
}

ControlledScenario LossyPaperExampleScenario(Algorithm algorithm) {
  ControlledScenario scenario = PaperExampleScenario(algorithm);
  // One update and a short retry budget keep the timer-augmented
  // schedule space enumerable.
  scenario.txns.resize(1);
  scenario.max_message_drops = 1;
  scenario.warehouse.base.query_timeout = 8'000;
  scenario.warehouse.base.query_retry_limit = 2;
  return scenario;
}

}  // namespace sweepmv
