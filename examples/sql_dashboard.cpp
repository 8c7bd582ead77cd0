// Defining the warehouse view in SQL and keeping live aggregates over it.
//
//   $ ./sql_dashboard
//
// Shows the full front-to-back path a downstream user takes: register
// source schemas in a catalog, write the view as SQL (the paper's own
// notation), maintain it with SWEEP, and hang incrementally-maintained
// COUNT/SUM dashboards off the warehouse's install observer.

#include <cstdio>

#include "common/table.h"
#include "consistency/checker.h"
#include "core/factory.h"
#include "relational/aggregate.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"
#include "sql/parser.h"

using namespace sweepmv;

int main() {
  // 1. Catalog the sources' schemas.
  Catalog catalog;
  catalog.AddTable("stores", Schema::AllInts({"store", "region"}));
  catalog.AddTable("sales", Schema::AllInts({"store", "sku", "amount"}));
  catalog.AddTable("products", Schema::AllInts({"sku", "category"}));

  // 2. The view, in SQL — region/category/amount of every sale, premium
  //    regions only.
  const char* kSql =
      "SELECT stores.region, products.category, sales.amount "
      "FROM stores, sales, products "
      "WHERE stores.store = sales.store "
      "AND sales.sku = products.sku "
      "AND stores.region >= 2";
  ParseViewResult parsed = ParseView(kSql, catalog);
  if (!parsed.ok) {
    std::fprintf(stderr, "SQL error: %s\n", parsed.error.c_str());
    return 1;
  }
  const ViewDef& view = parsed.view();
  std::printf("SQL:  %s\nView: %s\n\n", kSql,
              view.ToDisplayString().c_str());

  // 3. Seed and wire the distributed system.
  std::vector<Relation> bases = {
      Relation::OfInts(view.rel_schema(0), {{1, 1}, {2, 2}, {3, 3}}),
      Relation::OfInts(view.rel_schema(1),
                       {{2, 10, 5}, {3, 11, 8}, {3, 10, 2}}),
      Relation::OfInts(view.rel_schema(2), {{10, 100}, {11, 200}}),
  };
  Simulator sim;
  Network network(&sim, LatencyModel::Jittered(900, 500), 3);
  UpdateIdGenerator ids;
  std::vector<std::unique_ptr<DataSource>> sources;
  std::vector<int> sites;
  for (int r = 0; r < view.num_relations(); ++r) {
    sites.push_back(r + 1);
    sources.push_back(std::make_unique<DataSource>(
        r + 1, r, bases[static_cast<size_t>(r)], &view, &network, 0,
        &ids));
    network.RegisterSite(r + 1, sources.back().get());
  }
  std::unique_ptr<Warehouse> warehouse = MakeWarehouse(
      Algorithm::kSweep, 0, view, &network, sites, WarehouseConfig{});
  network.RegisterSite(0, warehouse.get());
  std::vector<const Relation*> rels;
  for (const Relation& b : bases) rels.push_back(&b);
  warehouse->InitializeView(view.EvaluateFull(rels));

  // 4. Dashboards: sales count per region, revenue per category — both
  //    maintained from the warehouse's view deltas, never rescanned.
  MaintainedAggregate sales_by_region(view.view_schema(),
                                      AggSpec{{0}, AggFn::kCount, -1});
  MaintainedAggregate revenue_by_category(view.view_schema(),
                                          AggSpec{{1}, AggFn::kSum, 2});
  sales_by_region.Initialize(warehouse->view());
  revenue_by_category.Initialize(warehouse->view());
  warehouse->SetInstallObserver(
      [&](const Relation& delta, const std::vector<int64_t>& ids_seen) {
        (void)ids_seen;
        sales_by_region.ApplyDelta(delta);
        revenue_by_category.ApplyDelta(delta);
      });

  // 5. A day of concurrent operational activity.
  sim.ScheduleAt(0, [&] { sources[1]->ApplyInsert(IntTuple({2, 11, 9})); });
  sim.ScheduleAt(250,
                 [&] { sources[1]->ApplyInsert(IntTuple({3, 10, 4})); });
  sim.ScheduleAt(500, [&] { sources[0]->ApplyInsert(IntTuple({4, 2})); });
  sim.ScheduleAt(750,
                 [&] { sources[1]->ApplyInsert(IntTuple({4, 11, 7})); });
  sim.ScheduleAt(1000,
                 [&] { sources[1]->ApplyDelete(IntTuple({3, 11, 8})); });
  sim.ScheduleAt(1250, [&] {
    // Product 10 recategorized (atomic modify).
    sources[2]->ApplyTransaction({UpdateOp::Delete(IntTuple({10, 100})),
                                  UpdateOp::Insert(IntTuple({10, 300}))});
  });
  sim.Run();

  // 6. Print the dashboards and cross-check against recomputation.
  auto print_agg = [](const char* title, const MaintainedAggregate& agg) {
    std::printf("%s\n", title);
    TablePrinter table({"group", "value"});
    const Relation result = agg.Result();
    for (const auto& [t, c] : result.SortedEntries()) {
      (void)c;
      table.AddRow({t.at(0).ToDisplayString(),
                    t.at(1).ToDisplayString()});
    }
    std::printf("%s\n", table.Render().c_str());
  };
  print_agg("Sales count by region:", sales_by_region);
  print_agg("Revenue by category:", revenue_by_category);

  MaintainedAggregate check(view.view_schema(),
                            AggSpec{{1}, AggFn::kSum, 2});
  check.Initialize(warehouse->view());
  bool agg_ok = check.Result() == revenue_by_category.Result();

  std::vector<const StateLog*> logs;
  for (const auto& s : sources) logs.push_back(&s->log());
  ConsistencyReport report = CheckConsistency(view, logs, *warehouse);
  std::printf("View consistency: %s; dashboards match recomputation: %s\n",
              ConsistencyLevelName(report.level), agg_ok ? "yes" : "NO");
  return report.level == ConsistencyLevel::kComplete && agg_ok ? 0 : 1;
}
