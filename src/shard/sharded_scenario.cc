#include "shard/sharded_scenario.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "consistency/replay.h"
#include "core/sweep.h"
#include "shard/router.h"
#include "shard/routing.h"
#include "shard/sharded_view.h"
#include "sim/simulator.h"
#include "source/data_source.h"

namespace sweepmv {

namespace {

// One independent view deployment: its own sources, router, and shards,
// all on the shared simulator/network. Lives in a std::deque so the
// ViewDef address captured by the shard_of closures stays stable.
struct Group {
  ViewDef view;
  std::vector<Relation> bases;
  std::vector<ScheduledTxn> txns;  // sorted by `at`, stable
  Relation initial_view;
  std::vector<std::unique_ptr<DataSource>> sources;
  std::unique_ptr<ShardRouter> router;
  std::vector<std::unique_ptr<SweepWarehouse>> shards;
  std::vector<std::unique_ptr<BatchPipeline>> pipelines;  // per relation
  // Unbatched mode: (committed update id or -1, submit time) per txn.
  std::vector<std::pair<int64_t, SimTime>> submit_log;

  Group(ViewDef v, std::vector<Relation> b, std::vector<ScheduledTxn> t)
      : view(std::move(v)), bases(std::move(b)), txns(std::move(t)) {}
};

// Executes txn i of the group and chain-schedules txn i+1: one pending
// closure per group instead of one per transaction, which is what keeps
// a million-update bench from holding a million closures at once. Same-
// time txns of a group still run in schedule order (the chained event is
// enqueued behind nothing of its own group).
void ExecuteTxn(Simulator* sim, Group* g, size_t i, bool batching) {
  const ScheduledTxn& txn = g->txns[i];
  if (batching) {
    g->pipelines[static_cast<size_t>(txn.relation)]->Submit(txn.ops);
  } else {
    const int64_t id =
        g->sources[static_cast<size_t>(txn.relation)]->ApplyTxn(
            txn.relation, txn.ops);
    g->submit_log.emplace_back(id, sim->now());
  }
  if (i + 1 < g->txns.size()) {
    sim->ScheduleAt(g->txns[i + 1].at, [sim, g, i, batching]() {
      ExecuteTxn(sim, g, i + 1, batching);
    });
  } else if (batching) {
    // Nothing may be stranded in a partial batch after the last submit.
    for (auto& pipeline : g->pipelines) pipeline->Flush();
  }
}

ShardedRunResult RunGroups(const ShardedScenarioConfig& config,
                           std::deque<Group>& groups) {
  SWEEP_CHECK_MSG(config.base.algorithm == Algorithm::kSweep,
                  "sharding supports SWEEP only: foreign-head discard is "
                  "exact for per-update in-order retirement, not for "
                  "Nested SWEEP's out-of-order folding");
  SWEEP_CHECK_MSG(config.base.relations_per_site == 1,
                  "the shard router assumes one relation per source site");
  SWEEP_CHECK(config.num_shards >= 1);

  const int num_shards = config.num_shards;
  const FaultPlan& plan = config.base.fault_plan;
  SWEEP_CHECK_MSG(plan.enabled || plan.crashes.empty(),
                  "source crashes need FaultPlan::enabled: without it the "
                  "run has no sessions and no query timeout, so a query "
                  "lost with the crashed source wedges the warehouse");

  Simulator sim;
  Network network(&sim, config.base.latency, config.base.network_seed);
  UpdateIdGenerator ids;
  if (plan.enabled) {
    network.SetDefaultFaults(plan.faults);
    network.EnableReliability(plan.reliability);
    network.SetSessionOptions(plan.session);
  }
  SWEEP_CHECK_MSG(plan.warehouse_crashes.empty(),
                  "sharded runs do not support warehouse crash plans yet");
  if (!plan.crashes.empty()) {
    SWEEP_CHECK_MSG(groups.size() == 1,
                    "crash plans address relations of a single view group");
  }

  Warehouse::Options shard_base = config.base.warehouse.base;
  if (plan.enabled) {
    shard_base.query_timeout = plan.query_timeout;
    shard_base.query_retry_limit = plan.query_retry_limit;
    shard_base.query_backoff_cap = plan.query_backoff_cap;
    shard_base.checkpoint_every = plan.checkpoint_every;
    shard_base.fifo_update_streams = plan.reliability;
  }
  const SourceStorageOptions storage_options{config.base.use_indexes};

  int next_site = 0;
  for (Group& group : groups) {
    const int n = group.view.num_relations();
    SWEEP_CHECK(static_cast<int>(group.bases.size()) == n);
    std::stable_sort(
        group.txns.begin(), group.txns.end(),
        [](const ScheduledTxn& a, const ScheduledTxn& b) {
          return a.at < b.at;
        });

    std::vector<int> shard_sites;
    for (int s = 0; s < num_shards; ++s) shard_sites.push_back(next_site++);
    const int router_site = next_site++;
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) source_sites.push_back(next_site++);

    for (int r = 0; r < n; ++r) {
      auto source = std::make_unique<DataSource>(
          source_sites[static_cast<size_t>(r)], r,
          group.bases[static_cast<size_t>(r)], &group.view, &network,
          /*warehouse_site=*/router_site, &ids, storage_options);
      network.RegisterSite(source_sites[static_cast<size_t>(r)],
                           source.get());
      group.sources.push_back(std::move(source));
    }

    group.router = std::make_unique<ShardRouter>(
        router_site, &network, source_sites, shard_sites);
    network.RegisterSite(router_site, group.router.get());

    const ViewDef* view_ptr = &group.view;
    for (int s = 0; s < num_shards; ++s) {
      Warehouse::Options options = shard_base;
      options.shard_index = s;
      options.shard_of = [view_ptr, num_shards](const Update& update) {
        return OwnerShard(*view_ptr, update, num_shards);
      };
      options.query_id_origin = s;
      options.query_id_stride = num_shards;
      auto shard = std::make_unique<SweepWarehouse>(
          shard_sites[static_cast<size_t>(s)], group.view, &network,
          std::vector<int>(static_cast<size_t>(n), router_site),
          SweepWarehouse::SweepOptions{
              options, config.base.warehouse.sweep_local_compensation});
      network.RegisterSite(shard_sites[static_cast<size_t>(s)],
                           shard.get());
      // Fragments start EMPTY: each accumulates only its owned deltas,
      // and Merged() adds them to the initial view.
      shard->InitializeView(Relation(group.view.view_schema()));
      group.shards.push_back(std::move(shard));
    }

    std::vector<const Relation*> rels;
    for (const Relation& r : group.bases) rels.push_back(&r);
    group.initial_view = group.view.EvaluateFull(rels);

    if (config.batching) {
      // Shard-affine flushing: align every shipped update with shard
      // ownership so a tuple's insert and delete cancel inside one
      // fragment (see shard/batch.h).
      BatchOptions batch = config.batch;
      batch.route_shards = num_shards;
      batch.view = &group.view;
      for (int r = 0; r < n; ++r) {
        group.pipelines.push_back(std::make_unique<BatchPipeline>(
            group.sources[static_cast<size_t>(r)].get(), r, &sim, batch));
      }
    }
    if (!group.txns.empty()) {
      Group* g = &group;
      const bool batching = config.batching;
      Simulator* sp = &sim;
      sim.ScheduleAt(group.txns.front().at, [sp, g, batching]() {
        ExecuteTxn(sp, g, 0, batching);
      });
    }
  }

  for (const FaultPlan::CrashEvent& crash : plan.crashes) {
    Group& group = groups.front();
    SWEEP_CHECK(crash.relation >= 0 &&
                crash.relation < group.view.num_relations());
    SWEEP_CHECK_MSG(crash.restart_at > crash.crash_at,
                    "a crash must precede its restart");
    DataSource* source =
        group.sources[static_cast<size_t>(crash.relation)].get();
    sim.ScheduleAt(crash.crash_at, [source]() { source->Crash(); });
    sim.ScheduleAt(crash.restart_at, [source]() { source->Restart(); });
  }

  const int64_t executed = sim.Run(config.base.max_events);

  ShardedRunResult result;
  result.num_views = static_cast<int>(groups.size());
  result.num_shards = num_shards;

  const auto drained = [&]() {
    if (executed >= config.base.max_events) return false;
    for (const Group& group : groups) {
      for (const auto& shard : group.shards) {
        if (!shard->update_queue().empty() || shard->Busy()) return false;
      }
      for (const auto& pipeline : group.pipelines) {
        if (pipeline->buffered() > 0) return false;
      }
    }
    return true;
  };
  if (plan.tolerate_failure) {
    result.completed = drained();
  } else {
    SWEEP_CHECK_MSG(executed < config.base.max_events,
                    "sharded scenario exceeded the event budget");
    SWEEP_CHECK_MSG(drained(),
                    "simulation drained but a shard is still busy");
  }

  result.finish_time = sim.now();
  result.net = network.stats();

  // Global id -> install time across every shard of every group (update
  // ids are globally unique).
  std::map<int64_t, SimTime> installed_at;
  for (const Group& group : groups) {
    for (const auto& shard : group.shards) {
      result.installs +=
          static_cast<int64_t>(shard->install_time_log().size());
      result.foreign_discards += shard->foreign_updates_discarded();
      result.duplicate_updates_ignored +=
          shard->duplicate_updates_ignored();
      for (const auto& [id, at] : shard->install_time_log()) {
        installed_at.emplace(id, at);
      }
    }
    for (int r = 0; r < group.view.num_relations(); ++r) {
      result.updates_committed += static_cast<int64_t>(
          group.sources[static_cast<size_t>(r)]->log(r).updates().size());
    }
    for (const auto& pipeline : group.pipelines) {
      result.txns_submitted += pipeline->stats().txns_submitted;
      result.batches_flushed += pipeline->stats().batches_flushed;
      result.noop_batches += pipeline->stats().noop_batches;
    }
    result.txns_submitted += static_cast<int64_t>(group.submit_log.size());
  }

  // Staleness samples: client accepted-at -> installed-at. An update the
  // run never installed (wedged tolerate_failure runs) counts up to the
  // end; a batch whose delta cancelled to a no-op retires at its flush.
  std::vector<double> staleness;
  for (const Group& group : groups) {
    for (const auto& pipeline : group.pipelines) {
      for (const BatchPipeline::FlushRecord& flush : pipeline->flush_log()) {
        // A batch is fully visible once the last of its (per-shard)
        // updates installs.
        SimTime done = flush.flushed_at;
        for (int64_t id : flush.update_ids) {
          const auto it = installed_at.find(id);
          done = std::max(done, it == installed_at.end()
                                    ? result.finish_time
                                    : it->second);
        }
        for (SimTime submit : flush.submit_times) {
          staleness.push_back(static_cast<double>(done - submit));
        }
      }
    }
    for (const auto& [id, submit] : group.submit_log) {
      if (id < 0) continue;  // refused by a crashed source: never an update
      const auto it = installed_at.find(id);
      const SimTime done =
          it == installed_at.end() ? result.finish_time : it->second;
      staleness.push_back(static_cast<double>(done - submit));
    }
  }
  result.staleness = PercentilesOf(std::move(staleness));

  // Correctness: merged fragments vs. the sources' replayed truth, per
  // group; cross-shard classification for group 0. Skipped (final_view
  // still reported) when check_consistency is off — the million-update
  // bench path.
  {
    const Group& g0 = groups.front();
    ShardedView merged(g0.initial_view);
    for (const auto& shard : g0.shards) merged.AddShard(shard.get());
    result.final_view = merged.Merged();
  }
  if (config.base.check_consistency && result.completed) {
    bool all_correct = true;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const Group& group = groups[gi];
      std::vector<const StateLog*> logs;
      for (int r = 0; r < group.view.num_relations(); ++r) {
        logs.push_back(&group.sources[static_cast<size_t>(r)]->log(r));
      }
      Replayer replay(&group.view, logs);
      std::vector<size_t> final_versions;
      for (int r = 0; r < group.view.num_relations(); ++r) {
        final_versions.push_back(replay.TotalUpdates(r));
      }
      replay.AdvanceTo(final_versions);

      ShardedView merged(group.initial_view);
      std::vector<const Warehouse*> shard_ptrs;
      for (const auto& shard : group.shards) {
        merged.AddShard(shard.get());
        shard_ptrs.push_back(shard.get());
      }
      const Relation expected = replay.CurrentView();
      all_correct = all_correct && merged.Merged() == expected;
      if (gi == 0) {
        result.expected_view = expected;
        result.shard_consistency = CheckShardedConsistency(
            group.view, logs, group.initial_view, shard_ptrs);
      }
    }
    result.all_groups_correct = all_correct;
  }
  return result;
}

}  // namespace

ShardedRunResult RunShardedScenario(const ShardedScenarioConfig& config) {
  SWEEP_CHECK(config.num_views >= 1);
  std::deque<Group> groups;
  for (int g = 0; g < config.num_views; ++g) {
    ChainSpec chain = config.base.chain;
    chain.seed = config.base.chain.seed + static_cast<uint64_t>(g);
    WorkloadSpec workload = config.base.workload;
    workload.seed = config.base.workload.seed + static_cast<uint64_t>(g);
    ViewDef view = MakeChainView(chain);
    std::vector<Relation> bases = MakeInitialBases(view, chain);
    std::vector<ScheduledTxn> txns =
        GenerateWorkload(view, bases, chain, workload);
    groups.emplace_back(std::move(view), std::move(bases), std::move(txns));
  }
  return RunGroups(config, groups);
}

ShardedRunResult RunShardedExplicit(const ShardedScenarioConfig& config,
                                    const ViewDef& view,
                                    const std::vector<Relation>&
                                        initial_bases,
                                    const std::vector<ScheduledTxn>& txns) {
  SWEEP_CHECK_MSG(config.num_views == 1,
                  "explicit sharded scenarios drive a single view");
  std::deque<Group> groups;
  groups.emplace_back(view, initial_bases, txns);
  return RunGroups(config, groups);
}

}  // namespace sweepmv
