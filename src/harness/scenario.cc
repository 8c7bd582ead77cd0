#include "harness/scenario.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "consistency/replay.h"
#include "core/cstrobe.h"
#include "core/eca.h"
#include "core/nested_sweep.h"
#include "core/strobe.h"
#include "core/sweep.h"
#include "harness/stats.h"
#include "sim/simulator.h"
#include "source/data_source.h"

namespace sweepmv {

namespace {

constexpr int kWarehouseSite = 0;

void ExtractAlgorithmCounters(const Warehouse& warehouse,
                              RunResult* result) {
  if (auto* sweep = dynamic_cast<const SweepWarehouse*>(&warehouse)) {
    result->compensations = sweep->compensations();
  } else if (auto* nested =
                 dynamic_cast<const NestedSweepWarehouse*>(&warehouse)) {
    result->compensations = nested->compensations();
    result->nested_calls = nested->nested_calls();
    result->forced_deferrals = nested->forced_deferrals();
  } else if (auto* strobe =
                 dynamic_cast<const StrobeWarehouse*>(&warehouse)) {
    result->batch_installs = strobe->batch_installs();
  } else if (auto* cstrobe =
                 dynamic_cast<const CStrobeWarehouse*>(&warehouse)) {
    result->compensating_queries = cstrobe->compensating_queries();
  } else if (auto* eca = dynamic_cast<const EcaWarehouse*>(&warehouse)) {
    result->batch_installs = eca->batch_installs();
    result->max_query_terms = eca->max_query_terms();
    result->total_query_terms = eca->total_query_terms();
  }
}

}  // namespace

RunResult RunExplicitScenario(const ScenarioConfig& config,
                              const ViewDef& view,
                              const std::vector<Relation>& initial_bases,
                              const std::vector<ScheduledTxn>& txns) {
  const int n = view.num_relations();
  SWEEP_CHECK(static_cast<int>(initial_bases.size()) == n);

  Simulator sim;
  Network network(&sim, config.latency, config.network_seed);
  UpdateIdGenerator ids;

  const FaultPlan& plan = config.fault_plan;
  SWEEP_CHECK_MSG(plan.enabled || plan.crashes.empty(),
                  "source crashes need FaultPlan::enabled: without it the "
                  "run has no sessions and no query timeout, so a query "
                  "lost with the crashed source wedges the warehouse");
  if (plan.enabled) {
    network.SetDefaultFaults(plan.faults);
    network.EnableReliability(plan.reliability);
    network.SetSessionOptions(plan.session);
  }

  // Topology: relations_per_site consecutive chain relations per source
  // site, relation r at site 1 + r / per_site. ECA's single source hosts
  // the whole chain and keeps no indexes: its queries join whole
  // relations.
  const bool single_source = RequiresSingleSource(config.algorithm);
  const int per_site =
      single_source ? n : std::max(1, config.relations_per_site);
  const SourceStorageOptions storage_options{config.use_indexes &&
                                             !single_source};
  std::vector<std::unique_ptr<DataSource>> sources;
  for (int lo = 0; lo < n; lo += per_site) {
    const int site_id = 1 + lo / per_site;
    sources.push_back(std::make_unique<DataSource>(
        site_id, lo,
        std::vector<Relation>(initial_bases.begin() + lo,
                              initial_bases.begin() +
                                  std::min(n, lo + per_site)),
        &view, &network, kWarehouseSite, &ids, storage_options));
    network.RegisterSite(site_id, sources.back().get());
  }
  auto source_of = [&](int relation) {
    return sources[static_cast<size_t>(relation / per_site)].get();
  };
  std::vector<int> source_sites;
  for (int r = 0; r < n; ++r) source_sites.push_back(source_of(r)->site_id());

  WarehouseConfig warehouse_config = config.warehouse;
  if (plan.enabled) {
    warehouse_config.base.query_timeout = plan.query_timeout;
    warehouse_config.base.query_retry_limit = plan.query_retry_limit;
    warehouse_config.base.query_backoff_cap = plan.query_backoff_cap;
    warehouse_config.base.checkpoint_every = plan.checkpoint_every;
    // Raw faulty delivery (reliability off) can reorder update streams,
    // so the bounded watermark dedup is unsound there; fall back to the
    // remember-every-id set.
    warehouse_config.base.fifo_update_streams = plan.reliability;
  }
  std::unique_ptr<Warehouse> warehouse =
      MakeWarehouse(config.algorithm, kWarehouseSite, view, &network,
                    source_sites, warehouse_config);
  network.RegisterSite(kWarehouseSite, warehouse.get());

  // Initialize the materialized view to the correct value (Figure 4).
  std::vector<const Relation*> rels;
  for (const Relation& r : initial_bases) rels.push_back(&r);
  warehouse->InitializeView(view.EvaluateFull(rels));
  warehouse->InitializeAuxiliary(initial_bases);

  // Schedule the workload.
  for (const ScheduledTxn& txn : txns) {
    DataSource* src = source_of(txn.relation);
    int rel = txn.relation;
    auto ops = txn.ops;
    sim.ScheduleAt(txn.at,
                   [src, rel, ops]() { src->ApplyTxn(rel, ops); });
  }

  // Schedule the crash/restart plan: one relation per (crashable) site.
  for (const FaultPlan::CrashEvent& crash : plan.crashes) {
    SWEEP_CHECK_MSG(!single_source && per_site == 1,
                    "crash plans need one-relation-per-site topology");
    SWEEP_CHECK(crash.relation >= 0 && crash.relation < n);
    SWEEP_CHECK_MSG(crash.restart_at > crash.crash_at,
                    "a crash must precede its restart");
    DataSource* source = source_of(crash.relation);
    sim.ScheduleAt(crash.crash_at, [source]() { source->Crash(); });
    sim.ScheduleAt(crash.restart_at, [source]() { source->Restart(); });
  }

  // Schedule warehouse crash/restarts. A down warehouse receives nothing;
  // only the session layer's retransmission delivers the messages sent
  // during the outage once the site is back, so reliability is mandatory.
  for (const FaultPlan::WarehouseCrashEvent& crash :
       plan.warehouse_crashes) {
    SWEEP_CHECK_MSG(plan.enabled && plan.reliability,
                    "warehouse crashes need reliability sessions: the "
                    "pristine network drops messages to a down site with "
                    "no retransmission");
    SWEEP_CHECK_MSG(plan.checkpoint_every > 0,
                    "warehouse crashes need a durable store "
                    "(FaultPlan::checkpoint_every > 0)");
    SWEEP_CHECK_MSG(crash.restart_at > crash.crash_at,
                    "a warehouse crash must precede its restart");
    Warehouse* site = warehouse.get();
    sim.ScheduleAt(crash.crash_at, [site]() { site->Crash(); });
    sim.ScheduleAt(crash.restart_at, [site]() { site->Restart(); });
  }

  int64_t executed = sim.Run(config.max_events);
  RunResult result;
  if (plan.tolerate_failure) {
    result.completed = executed < config.max_events &&
                       warehouse->update_queue().empty() &&
                       !warehouse->Busy();
  } else {
    SWEEP_CHECK_MSG(executed < config.max_events,
                    "scenario exceeded the event budget (runaway protocol?)");
    SWEEP_CHECK_MSG(warehouse->update_queue().empty() && !warehouse->Busy(),
                    "simulation drained but the warehouse is still busy");
  }

  result.algorithm_name = warehouse->name();
  result.net = network.stats();
  result.updates_delivered = warehouse->updates_received();
  result.installs = static_cast<int64_t>(warehouse->install_log().size());
  result.final_view = warehouse->view();
  result.finish_time = sim.now();
  if (!warehouse->install_log().empty()) {
    result.first_install_time = warehouse->install_log().front().time;
  }
  if (!warehouse->arrival_log().empty()) {
    result.last_arrival_time = warehouse->arrival_log().back().second;
  }
  result.staleness_integral = StalenessIntegral(*warehouse);
  result.mean_incorporation_delay = MeanIncorporationDelay(*warehouse);
  {
    const StalenessPercentiles tail =
        IncorporationDelayPercentiles(*warehouse);
    result.staleness_p50 = tail.p50;
    result.staleness_p99 = tail.p99;
  }
  if (result.updates_delivered > 0) {
    int64_t maintenance =
        result.net.Of(MessageClass::kQueryRequest).messages +
        result.net.Of(MessageClass::kQueryAnswer).messages;
    result.maintenance_msgs_per_update =
        static_cast<double>(maintenance) /
        static_cast<double>(result.updates_delivered);
  }
  ExtractAlgorithmCounters(*warehouse, &result);
  result.duplicate_updates_ignored = warehouse->duplicate_updates_ignored();
  result.stale_answers_ignored = warehouse->stale_answers_ignored();
  result.queries_reissued = warehouse->queries_reissued();
  result.warehouse_recoveries = warehouse->recoveries();
  result.wal_updates_replayed = warehouse->wal_replayed();
  result.checkpoints_taken = warehouse->checkpoints_taken();
  result.checkpoint_bytes_max = warehouse->checkpoint_bytes_max();
  result.pre_epoch_answers_ignored = warehouse->pre_epoch_answers_ignored();
  result.max_query_attempts = warehouse->max_query_attempts();
  result.dedup_state_entries =
      static_cast<int64_t>(warehouse->dedup_state_size());
  for (const auto& source : sources) {
    result.storage.MergeFrom(source->storage_stats());
    result.updates_replayed += source->updates_replayed();
  }

  // Ground truth + consistency classification.
  std::vector<const StateLog*> logs;
  for (int r = 0; r < n; ++r) logs.push_back(&source_of(r)->log(r));
  {
    Replayer replay(&view, logs);
    std::vector<size_t> final_versions;
    for (int r = 0; r < n; ++r) {
      final_versions.push_back(replay.TotalUpdates(r));
    }
    replay.AdvanceTo(final_versions);
    result.expected_view = replay.CurrentView();
  }
  // A wedged run gets the cheap final-state comparison only: the replay
  // checker's install-by-install classification presumes every update was
  // eventually incorporated.
  if (config.check_consistency && result.completed) {
    result.consistency = CheckConsistency(view, logs, *warehouse);
  } else {
    result.consistency.final_state_correct =
        result.final_view == result.expected_view;
    result.consistency.level = result.consistency.final_state_correct
                                   ? ConsistencyLevel::kConvergent
                                   : ConsistencyLevel::kInconsistent;
  }
  return result;
}

RunResult RunScenario(const ScenarioConfig& config) {
  ViewDef view = MakeChainView(config.chain);
  std::vector<Relation> initial = MakeInitialBases(view, config.chain);
  std::vector<ScheduledTxn> txns =
      GenerateWorkload(view, initial, config.chain, config.workload);
  return RunExplicitScenario(config, view, initial, txns);
}

}  // namespace sweepmv
