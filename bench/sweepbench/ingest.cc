#include "ingest.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/str.h"
#include "consistency/replay.h"
#include "consistency/shard_check.h"
#include "core/factory.h"
#include "core/sweep.h"
#include "harness/stats.h"
#include "shard/router.h"
#include "shard/routing.h"
#include "shard/sharded_scenario.h"
#include "shard/sharded_view.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"
#include "trace.h"

namespace sweepbench {

using namespace sweepmv;

namespace {

constexpr int kWarehouseSite = 0;

struct IngestSpec {
  // Chain, workload, latency, warehouse and fault-plan knobs, with the
  // harness's meaning. fault_plan.warehouse_crashes is filled in from the
  // generated arrival span (see warehouse_crashes below).
  ScenarioConfig base;
  // 0: the paper's direct topology (one source site per relation, one
  // warehouse). > 0: a ShardRouter in front of this many SWEEP shards.
  int shards = 0;
  // Independent view groups (sharded topology only).
  int views = 1;
  bool batching = false;
  BatchOptions batch;
  // Warehouse crashes placed at k/(n+1) of the arrival span, each down
  // for crash_down ticks.
  int warehouse_crashes = 0;
  SimTime crash_down = 0;
};

// One view group's generated inputs. Held in a std::deque so the ViewDef
// address the sources and shard_of closures keep stays stable.
struct Inputs {
  ViewDef view;
  std::vector<Relation> bases;
  std::vector<ScheduledTxn> txns;
};

// Per-group seeds are offset by the group index, as RunShardedScenario
// does, so group 0 of any spec equals RunScenario's inputs.
std::deque<Inputs> Generate(const IngestSpec& spec) {
  std::deque<Inputs> groups;
  for (int g = 0; g < spec.views; ++g) {
    ChainSpec chain = spec.base.chain;
    chain.seed += static_cast<uint64_t>(g);
    WorkloadSpec workload = spec.base.workload;
    workload.seed += static_cast<uint64_t>(g);
    ViewDef view = MakeChainView(chain);
    std::vector<Relation> bases = MakeInitialBases(view, chain);
    std::vector<ScheduledTxn> txns =
        GenerateWorkload(view, bases, chain, workload);
    groups.push_back(
        Inputs{std::move(view), std::move(bases), std::move(txns)});
  }
  return groups;
}

FaultPlan PlanFor(const IngestSpec& spec, const std::deque<Inputs>& inputs) {
  FaultPlan plan = spec.base.fault_plan;
  SimTime span = 0;
  for (const ScheduledTxn& txn : inputs.front().txns) {
    span = std::max(span, txn.at);
  }
  const int n = spec.warehouse_crashes;
  for (int k = 1; k <= n; ++k) {
    const SimTime at = span * k / (n + 1);
    plan.warehouse_crashes.push_back({at, at + spec.crash_down});
  }
  return plan;
}

// Everything schedule-determined about one run of a deployment.
struct Outcome {
  int64_t txns = 0;      // client transactions executed
  int64_t commits = 0;   // source commits (update messages shipped)
  int64_t installs = 0;  // update installs, summed over warehouses
  int64_t failed = 0;    // client transactions never installed
  int64_t events = 0;
  NetworkStats net;
  int64_t compensations = 0;
  int64_t foreign_discards = 0;
  StorageStats storage;
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes_max = 0;
  int64_t wal_replayed = 0;
  int64_t recoveries = 0;
  int64_t batches = 0;
  int64_t noop_batches = 0;
  int64_t updates_broadcast = 0;
  StalenessPercentiles staleness;
  std::vector<Relation> views;  // final view per group

  std::string Text() const {
    std::string text = StrFormat(
        "txns=%lld commits=%lld installs=%lld failed=%lld events=%lld "
        "compensations=%lld foreign=%lld probes=%lld matches=%lld "
        "scans=%lld ckpts=%lld ckpt_max=%lld wal=%lld recoveries=%lld "
        "batches=%lld noop=%lld broadcast=%lld p50=%.1f p99=%.1f "
        "samples=%lld",
        static_cast<long long>(txns), static_cast<long long>(commits),
        static_cast<long long>(installs), static_cast<long long>(failed),
        static_cast<long long>(events),
        static_cast<long long>(compensations),
        static_cast<long long>(foreign_discards),
        static_cast<long long>(storage.index_probes),
        static_cast<long long>(storage.index_matches),
        static_cast<long long>(storage.scan_fallbacks),
        static_cast<long long>(checkpoints),
        static_cast<long long>(checkpoint_bytes_max),
        static_cast<long long>(wal_replayed),
        static_cast<long long>(recoveries), static_cast<long long>(batches),
        static_cast<long long>(noop_batches),
        static_cast<long long>(updates_broadcast), staleness.p50,
        staleness.p99, static_cast<long long>(staleness.samples));
    text += " net=" + net.ToDisplayString();
    for (size_t g = 0; g < views.size(); ++g) {
      StateHasher h;
      AbsorbRelation(h, "view", views[g]);
      const Fp128 fp = h.Digest();
      text += StrFormat(" view%zu=%016llx%016llx", g,
                        static_cast<unsigned long long>(fp.hi),
                        static_cast<unsigned long long>(fp.lo));
    }
    return text;
  }
};

// One deployment of an IngestSpec over generated inputs, wired exactly as
// RunExplicitScenario (direct topology) or RunShardedScenario (router +
// shards) wire theirs, so event order — and with it every output — is
// the harness's. With a tracer, a TimedSite is registered in place of
// every site and the benchmark's own closures open spans.
class Deployment {
 public:
  Deployment(const IngestSpec& spec, const FaultPlan& plan,
             std::deque<Inputs>* inputs, Tracer* tracer)
      : spec_(spec),
        plan_(plan),
        tracer_(tracer),
        network_(&sim_, spec.base.latency, spec.base.network_seed) {
    if (plan_.enabled) {
      network_.SetDefaultFaults(plan_.faults);
      network_.EnableReliability(plan_.reliability);
      network_.SetSessionOptions(plan_.session);
    }
    if (spec_.shards == 0) {
      SWEEP_CHECK_MSG(inputs->size() == 1,
                      "the direct topology deploys a single view");
      groups_.emplace_back(&inputs->front());
      BuildDirect(groups_.front());
    } else {
      SWEEP_CHECK_MSG(plan_.warehouse_crashes.empty(),
                      "sharded deployments take no warehouse crashes");
      int next_site = 0;
      for (Inputs& in : *inputs) {
        groups_.emplace_back(&in);
        BuildSharded(groups_.back(), &next_site);
      }
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // The timed phase: the whole simulation, as one Simulator::Run or, when
  // traced, as a Step loop with one span per event.
  void Run() {
    const int64_t max_events = spec_.base.max_events;
    if (tracer_ == nullptr) {
      events_ = sim_.Run(max_events);
      return;
    }
    while (events_ < max_events && sim_.pending_events() > 0) {
      ScopedSpan span(tracer_, Layer::kSimStep);
      sim_.Step();
      ++events_;
    }
  }

  // Every warehouse idle and every batch flushed within the event budget.
  bool Drained() const {
    if (events_ >= spec_.base.max_events) return false;
    for (const Group& group : groups_) {
      for (const auto& warehouse : group.warehouses) {
        if (!warehouse->update_queue().empty() || warehouse->Busy()) {
          return false;
        }
      }
      for (const auto& pipeline : group.pipelines) {
        if (pipeline->buffered() > 0) return false;
      }
    }
    return true;
  }

  Outcome Collect() const {
    Outcome out;
    out.events = events_;
    out.net = network_.stats();
    std::map<int64_t, SimTime> installed_at;
    for (const Group& group : groups_) {
      for (const auto& warehouse : group.warehouses) {
        out.installs +=
            static_cast<int64_t>(warehouse->install_time_log().size());
        out.foreign_discards += warehouse->foreign_updates_discarded();
        out.checkpoints += warehouse->checkpoints_taken();
        out.checkpoint_bytes_max = std::max(
            out.checkpoint_bytes_max, warehouse->checkpoint_bytes_max());
        out.wal_replayed += warehouse->wal_replayed();
        out.recoveries += warehouse->recoveries();
        if (const auto* sweep =
                dynamic_cast<const SweepWarehouse*>(warehouse.get())) {
          out.compensations += sweep->compensations();
        }
        for (const auto& [id, at] : warehouse->install_time_log()) {
          installed_at.emplace(id, at);
        }
      }
      for (const auto& source : group.sources) {
        out.commits +=
            static_cast<int64_t>(source->log().updates().size());
        out.storage.MergeFrom(source->storage_stats());
      }
      if (group.router != nullptr) {
        out.updates_broadcast += group.router->updates_broadcast();
      }
      for (const auto& pipeline : group.pipelines) {
        out.txns += pipeline->stats().txns_submitted;
        out.batches += pipeline->stats().batches_flushed;
        out.noop_batches += pipeline->stats().noop_batches;
      }
      out.txns += static_cast<int64_t>(group.submit_log.size());
    }

    // Client submit -> install. A batched transaction is visible once the
    // last update of its batch installs; a no-op batch retires at its
    // flush. A transaction never installed counts up to the end of the
    // run and as failed.
    const SimTime finish = sim_.now();
    std::vector<double> staleness;
    for (const Group& group : groups_) {
      for (const auto& pipeline : group.pipelines) {
        for (const BatchPipeline::FlushRecord& flush :
             pipeline->flush_log()) {
          SimTime done = flush.flushed_at;
          bool installed = true;
          for (int64_t id : flush.update_ids) {
            const auto it = installed_at.find(id);
            installed = installed && it != installed_at.end();
            done = std::max(done,
                            it == installed_at.end() ? finish : it->second);
          }
          for (SimTime submit : flush.submit_times) {
            staleness.push_back(static_cast<double>(done - submit));
            if (!installed) ++out.failed;
          }
        }
      }
      for (const auto& [id, submit] : group.submit_log) {
        if (id < 0) continue;  // a net no-op ships no update
        const auto it = installed_at.find(id);
        if (it == installed_at.end()) ++out.failed;
        const SimTime done = it == installed_at.end() ? finish : it->second;
        staleness.push_back(static_cast<double>(done - submit));
      }
      out.views.push_back(FinalView(group));
    }
    out.staleness = PercentilesOf(std::move(staleness));
    return out;
  }

  // The replay check: every group's final view against the view the
  // sources' state logs replay to, and for sharded group 0 the
  // cross-shard classification, which must be complete. Run outside the
  // timed region.
  bool MatchesTruth(const Outcome& outcome, std::string* detail) const {
    for (size_t g = 0; g < groups_.size(); ++g) {
      const Group& group = groups_[g];
      std::vector<const StateLog*> logs;
      for (const auto& source : group.sources) logs.push_back(&source->log());
      Replayer replay(&group.in->view, logs);
      std::vector<size_t> final_versions;
      for (int r = 0; r < replay.num_relations(); ++r) {
        final_versions.push_back(replay.TotalUpdates(r));
      }
      replay.AdvanceTo(final_versions);
      if (!(outcome.views[g] == replay.CurrentView())) {
        *detail = StrFormat("group %zu: final view differs from the "
                            "replayed truth",
                            g);
        return false;
      }
      if (g == 0 && spec_.shards > 0) {
        std::vector<const Warehouse*> shards;
        for (const auto& shard : group.warehouses) {
          shards.push_back(shard.get());
        }
        const ShardConsistencyReport report = CheckShardedConsistency(
            group.in->view, logs, group.initial_view, shards);
        if (report.level != ConsistencyLevel::kComplete) {
          *detail = "sharded consistency below complete: " + report.detail;
          return false;
        }
      }
    }
    return true;
  }

  // SerializeCheckpoint of every warehouse's end state, in seconds.
  double SerializeAll() const {
    const double start = NowSeconds();
    size_t bytes = 0;
    for (const Group& group : groups_) {
      for (const auto& warehouse : group.warehouses) {
        bytes += warehouse->SerializeCheckpoint().size();
      }
    }
    const double elapsed = NowSeconds() - start;
    SWEEP_CHECK(bytes > 0);
    return elapsed;
  }

  // Queue-depth samples the warehouse proxies took (traced runs only).
  void QueueDepth(double* mean, int64_t* max) const {
    int64_t samples = 0;
    int64_t sum = 0;
    *max = 0;
    for (const auto& timed : timed_) {
      samples += timed->queue_samples();
      sum += timed->queue_depth_sum();
      *max = std::max(*max, timed->queue_depth_max());
    }
    *mean = samples > 0 ? static_cast<double>(sum) /
                              static_cast<double>(samples)
                        : 0.0;
  }

 private:
  struct Group {
    explicit Group(Inputs* inputs) : in(inputs) {}

    Inputs* in;
    Relation initial_view;
    std::vector<std::unique_ptr<DataSource>> sources;
    std::unique_ptr<ShardRouter> router;
    // The warehouse (direct topology) or the shards.
    std::vector<std::unique_ptr<Warehouse>> warehouses;
    std::vector<std::unique_ptr<BatchPipeline>> pipelines;  // per relation
    // Unbatched submits: (update id or -1 for a no-op, submit time).
    std::vector<std::pair<int64_t, SimTime>> submit_log;
  };

  void Register(int id, Site* site, TimedSite::Role role) {
    if (tracer_ == nullptr) {
      network_.RegisterSite(id, site);
      return;
    }
    timed_.push_back(std::make_unique<TimedSite>(site, role, tracer_));
    network_.RegisterSite(id, timed_.back().get());
  }

  Relation FinalView(const Group& group) const {
    if (spec_.shards == 0) return group.warehouses.front()->view();
    ShardedView merged(group.initial_view);
    for (const auto& shard : group.warehouses) merged.AddShard(shard.get());
    return merged.Merged();
  }

  Warehouse::Options WarehouseOptions() const {
    Warehouse::Options options = spec_.base.warehouse.base;
    if (plan_.enabled) {
      options.query_timeout = plan_.query_timeout;
      options.query_retry_limit = plan_.query_retry_limit;
      options.query_backoff_cap = plan_.query_backoff_cap;
      options.checkpoint_every = plan_.checkpoint_every;
      options.fifo_update_streams = plan_.reliability;
    }
    return options;
  }

  // Sources at sites 1..n, the warehouse at site 0, every transaction
  // scheduled up front, then the crash plan: RunExplicitScenario's order.
  void BuildDirect(Group& group) {
    const ViewDef& view = group.in->view;
    const int n = view.num_relations();
    const SourceStorageOptions storage{spec_.base.use_indexes};
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) {
      const int site_id = r + 1;
      group.sources.push_back(std::make_unique<DataSource>(
          site_id, r, group.in->bases[static_cast<size_t>(r)], &view,
          &network_, kWarehouseSite, &ids_, storage));
      Register(site_id, group.sources.back().get(), TimedSite::Role::kSource);
      source_sites.push_back(site_id);
    }
    WarehouseConfig config = spec_.base.warehouse;
    config.base = WarehouseOptions();
    group.warehouses.push_back(MakeWarehouse(Algorithm::kSweep,
                                             kWarehouseSite, view, &network_,
                                             source_sites, config));
    Warehouse* warehouse = group.warehouses.back().get();
    Register(kWarehouseSite, warehouse, TimedSite::Role::kWarehouse);
    std::vector<const Relation*> rels;
    for (const Relation& r : group.in->bases) rels.push_back(&r);
    warehouse->InitializeView(view.EvaluateFull(rels));
    warehouse->InitializeAuxiliary(group.in->bases);

    Group* g = &group;
    for (const ScheduledTxn& txn : group.in->txns) {
      DataSource* source =
          group.sources[static_cast<size_t>(txn.relation)].get();
      const int rel = txn.relation;
      auto ops = txn.ops;
      sim_.ScheduleAt(txn.at, [this, g, source, rel, ops]() {
        ScopedSpan span(tracer_, Layer::kSourceCommit);
        const int64_t id = source->ApplyTxn(rel, ops);
        g->submit_log.emplace_back(id, sim_.now());
      });
    }
    for (const FaultPlan::WarehouseCrashEvent& crash :
         plan_.warehouse_crashes) {
      SWEEP_CHECK_MSG(plan_.enabled && plan_.reliability &&
                          plan_.checkpoint_every > 0,
                      "warehouse crashes need sessions and a durable store");
      sim_.ScheduleAt(crash.crash_at, [this, warehouse]() {
        ScopedSpan span(tracer_, Layer::kCrashRecover);
        warehouse->Crash();
      });
      sim_.ScheduleAt(crash.restart_at, [this, warehouse]() {
        ScopedSpan span(tracer_, Layer::kCrashRecover);
        warehouse->Restart();
      });
    }
  }

  // RunShardedScenario's wiring: per group, shard sites, then the router,
  // then the sources; one chained injection closure per group.
  void BuildSharded(Group& group, int* next_site) {
    Inputs& in = *group.in;
    const int n = in.view.num_relations();
    const int num_shards = spec_.shards;
    std::stable_sort(in.txns.begin(), in.txns.end(),
                     [](const ScheduledTxn& a, const ScheduledTxn& b) {
                       return a.at < b.at;
                     });
    std::vector<int> shard_sites;
    for (int s = 0; s < num_shards; ++s) {
      shard_sites.push_back((*next_site)++);
    }
    const int router_site = (*next_site)++;
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) source_sites.push_back((*next_site)++);

    const SourceStorageOptions storage{spec_.base.use_indexes};
    for (int r = 0; r < n; ++r) {
      group.sources.push_back(std::make_unique<DataSource>(
          source_sites[static_cast<size_t>(r)], r,
          in.bases[static_cast<size_t>(r)], &in.view, &network_,
          router_site, &ids_, storage));
      Register(source_sites[static_cast<size_t>(r)],
               group.sources.back().get(), TimedSite::Role::kSource);
    }
    group.router = std::make_unique<ShardRouter>(router_site, &network_,
                                                 source_sites, shard_sites);
    Register(router_site, group.router.get(), TimedSite::Role::kRouter);

    const ViewDef* view_ptr = &in.view;
    for (int s = 0; s < num_shards; ++s) {
      Warehouse::Options options = WarehouseOptions();
      options.shard_index = s;
      options.shard_of = [view_ptr, num_shards](const Update& update) {
        return OwnerShard(*view_ptr, update, num_shards);
      };
      options.query_id_origin = s;
      options.query_id_stride = num_shards;
      auto shard = std::make_unique<SweepWarehouse>(
          shard_sites[static_cast<size_t>(s)], in.view, &network_,
          std::vector<int>(static_cast<size_t>(n), router_site),
          SweepWarehouse::SweepOptions{
              options, spec_.base.warehouse.sweep_local_compensation});
      Register(shard_sites[static_cast<size_t>(s)], shard.get(),
               TimedSite::Role::kWarehouse);
      shard->InitializeView(Relation(in.view.view_schema()));
      group.warehouses.push_back(std::move(shard));
    }

    std::vector<const Relation*> rels;
    for (const Relation& r : in.bases) rels.push_back(&r);
    group.initial_view = in.view.EvaluateFull(rels);

    if (spec_.batching) {
      BatchOptions batch = spec_.batch;
      batch.route_shards = num_shards;
      batch.view = &in.view;
      for (int r = 0; r < n; ++r) {
        group.pipelines.push_back(std::make_unique<BatchPipeline>(
            group.sources[static_cast<size_t>(r)].get(), r, &sim_, batch));
      }
    }
    if (!in.txns.empty()) {
      Group* g = &group;
      sim_.ScheduleAt(in.txns.front().at, [this, g]() { Inject(g, 0); });
    }
  }

  // Executes transaction i of the group and chain-schedules i+1, as the
  // sharded harness does (one pending closure per group).
  void Inject(Group* g, size_t i) {
    const ScheduledTxn& txn = g->in->txns[i];
    const size_t rel = static_cast<size_t>(txn.relation);
    if (spec_.batching) {
      ScopedSpan span(tracer_, Layer::kBatchSubmit);
      g->pipelines[rel]->Submit(txn.ops);
    } else {
      ScopedSpan span(tracer_, Layer::kSourceCommit);
      const int64_t id = g->sources[rel]->ApplyTxn(txn.relation, txn.ops);
      g->submit_log.emplace_back(id, sim_.now());
    }
    if (i + 1 < g->in->txns.size()) {
      sim_.ScheduleAt(g->in->txns[i + 1].at,
                      [this, g, i]() { Inject(g, i + 1); });
    } else if (spec_.batching) {
      // Nothing may be stranded in a partial batch after the last submit.
      ScopedSpan span(tracer_, Layer::kBatchSubmit);
      for (auto& pipeline : g->pipelines) pipeline->Flush();
    }
  }

  const IngestSpec& spec_;
  FaultPlan plan_;
  Tracer* tracer_;
  Simulator sim_;
  Network network_;
  UpdateIdGenerator ids_;
  std::deque<Group> groups_;
  std::vector<std::unique_ptr<TimedSite>> timed_;
  int64_t events_ = 0;
};

// Input sets per run. Throughput and memory depend on the generated
// inputs (hot keys, view size), so one run measures several input sets
// drawn from its seed and reports the aggregate; the run-to-run spread
// across seeds shrinks accordingly.
constexpr uint64_t kVariants = 4;

// Base seed of input set `v` of run seed `seed`. View group g of a set
// uses base + g (Generate), so bases are spaced past the largest group
// count to keep every group of every set and run distinct.
uint64_t VariantSeed(uint64_t seed, uint64_t v) {
  return (seed * kVariants + v) * 8;
}

// The named workload's configuration for one input set.
IngestSpec MakeIngestSpec(const std::string& name, uint64_t seed,
                          bool smoke) {
  IngestSpec spec;
  ScenarioConfig& base = spec.base;
  base.chain.initial_tuples = 32;
  base.chain.join_domain = 64;
  base.chain.seed = seed;
  base.workload.seed = seed;
  base.network_seed = seed;
  base.workload.max_ops_per_txn = 1;
  base.workload.key_skew = 0.8;
  base.latency = LatencyModel::Fixed(1000);
  base.warehouse.base.log_installs = false;
  base.max_events = 200'000'000;

  if (name == "ingest_contended") {
    // 3 query round trips = 6,000 ticks per sweep against a 6,600-tick
    // mean interarrival: rho ~ 0.91, so most sweeps are interfered with.
    base.chain.num_relations = 4;
    base.workload.key_domain = 512;
    base.workload.mean_interarrival = 6'600.0;
    base.workload.total_txns = smoke ? 300 : 5'000;
  } else if (name == "ingest_durable_lossy") {
    base.chain.num_relations = 3;
    base.workload.key_domain = 256;
    base.workload.mean_interarrival = 12'000.0;
    base.workload.total_txns = smoke ? 600 : 5'000;
    FaultPlan& plan = base.fault_plan;
    plan.enabled = true;
    plan.faults.drop_prob = 0.01;
    plan.faults.dup_prob = 0.005;
    plan.reliability = true;
    plan.checkpoint_every = 16;
    plan.query_timeout = 60'000;
    spec.warehouse_crashes = 2;
    spec.crash_down = 20'000;
  } else {
    base.chain.num_relations = 3;
    base.workload.key_domain = 256;
    base.workload.mean_interarrival = 12'000.0;
    base.workload.total_txns = smoke ? 600 : 10'000;  // per view
    spec.views = 5;
    spec.shards = 4;
    spec.batching = true;
    spec.batch.max_batch = 256;
    spec.batch.max_delay = 10'000'000;
  }
  return spec;
}

}  // namespace

bool IsIngestWorkload(const std::string& name) {
  return name == "ingest_contended" || name == "ingest_durable_lossy" ||
         name == "ingest_batched_sharded";
}

WorkloadResult RunIngest(const std::string& name, const RunOptions& options) {
  SWEEP_CHECK_MSG(IsIngestWorkload(name), "unknown ingest workload");
  std::vector<IngestSpec> variants;
  const uint64_t count = options.smoke ? 1 : kVariants;
  for (uint64_t v = 0; v < count; ++v) {
    variants.push_back(
        MakeIngestSpec(name, VariantSeed(options.seed, v), options.smoke));
  }

  WorkloadResult result;
  std::vector<std::string> reference(variants.size());  // Outcome::Text
  std::vector<int64_t> txns(variants.size());
  // Per input set: every timed repetition's wall time.
  std::vector<std::vector<double>> run_s(variants.size());
  std::vector<double> kernel_s;  // reference kernel, between repetitions
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> wall_throughput;
  std::vector<double> untraced_run_s;
  std::vector<double> traced_run_s;
  Tracer tracer;
  std::string failure;
  double check_s = 0.0;
  double serialize_s = 0.0;
  std::optional<Outcome> layer_outcome;  // the first traced repetition's
  double queue_mean = 0.0;
  int64_t queue_max = 0;

  // The reference pass runs every input set once, untimed: it warms the
  // process up, reaches the workload's memory high-water mark, and
  // records the outputs every later repetition of that input set must
  // reproduce exactly. The replay check follows the first timed
  // repetition of each set, outside its timing and after the memory
  // reading, so neither includes the checker.
  std::vector<bool> checked(variants.size(), false);
  enum class Pass { kReference, kTimed, kTraced };
  auto rep = [&](size_t v, Pass pass) {
    const IngestSpec& spec = variants[v];
    const double start = NowSeconds();
    std::deque<Inputs> inputs = Generate(spec);
    const double generated = NowSeconds();
    const FaultPlan plan = PlanFor(spec, inputs);
    Deployment deployment(spec, plan, &inputs,
                          pass == Pass::kTraced ? &tracer : nullptr);
    const double built = NowSeconds();
    deployment.Run();
    const double elapsed = NowSeconds() - built;

    if (!deployment.Drained()) {
      failure = "the simulation drained with a warehouse still busy";
    }
    const Outcome outcome = deployment.Collect();
    result.attempted += outcome.txns;
    result.failed += outcome.failed;
    if (pass == Pass::kReference) {
      reference[v] = outcome.Text();
      txns[v] = outcome.txns;
      return;
    }
    if (outcome.Text() != reference[v]) {
      failure = "a repetition produced different outputs";
    }
    if (!checked[v]) {
      checked[v] = true;
      const double check_start = NowSeconds();
      std::string detail;
      if (!deployment.MatchesTruth(outcome, &detail)) failure = detail;
      if (v == 0) {
        check_s = NowSeconds() - check_start;
        serialize_s = deployment.SerializeAll();
      }
    }
    setup_s.push_back(built - start);
    gen_s.push_back(generated - start);
    if (pass == Pass::kTraced) {
      traced_run_s.push_back(elapsed);
      if (!layer_outcome) {
        layer_outcome = outcome;
        deployment.QueueDepth(&queue_mean, &queue_max);
      }
    } else {
      run_s[v].push_back(elapsed);
      untraced_run_s.push_back(elapsed);
      wall_throughput.push_back(static_cast<double>(outcome.txns) / elapsed);
    }
  };

  const double start = NowSeconds();
  for (size_t v = 0; v < variants.size(); ++v) rep(v, Pass::kReference);
  const double left = std::max(0.0, options.seconds - (NowSeconds() - start));
  const int min_reps = static_cast<int>(variants.size());
  const double budget = options.trace ? left / 2 : left;
  const double peak_rss_mb = PeakRssMb();
  kernel_s.push_back(ReferenceKernelSeconds());
  RepeatFor(budget, min_reps, [&](int i) {
    rep(static_cast<size_t>(i) % variants.size(), Pass::kTimed);
    kernel_s.push_back(ReferenceKernelSeconds());
  });
  if (options.trace) {
    RepeatFor(budget, min_reps,
              [&](int i) { rep(static_cast<size_t>(i) % variants.size(),
                               Pass::kTraced); });
  }
  for (const std::string& text : reference) {
    if (!result.deterministic.empty()) result.deterministic += " | ";
    result.deterministic += text;
  }
  if (!failure.empty()) {
    result.correct = false;
    result.notes.push_back("FAILED: " + failure);
  }
  result.samples.emplace_back("setup_s", setup_s);
  result.samples.emplace_back("reference_s", kernel_s);

  // All input sets' transactions over the sum of their median repetition
  // times, in wall seconds and in reference-kernel units.
  int64_t total_txns = 0;
  double total_s = 0.0;
  for (size_t v = 0; v < variants.size(); ++v) {
    total_txns += txns[v];
    total_s += Summarize(run_s[v]).median;
  }
  const double wall_rate = static_cast<double>(total_txns) / total_s;
  const double kernel = Summarize(kernel_s).median;
  std::vector<double> ref_throughput;
  for (double rate : wall_throughput) ref_throughput.push_back(rate * kernel);
  result.samples.emplace_back("throughput_vs_ref", ref_throughput);
  result.samples.emplace_back("wall_throughput_per_s", wall_throughput);
  if (!options.trace) {
    result.Add("throughput_vs_ref", wall_rate * kernel, "ops/ref");
    result.Add("setup_s", Summarize(setup_s).median, "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  double traced_total = 0.0;
  for (double s : traced_run_s) traced_total += s;
  auto frac = [&](Layer layer) {
    return Share(tracer.totals(layer).self_s, traced_total);
  };
  const Outcome& o = *layer_outcome;
  const double updates = static_cast<double>(o.commits);
  result.Add("wall.throughput_per_s", wall_rate, "1/s");
  result.Add("wall.reference_s", kernel, "s");
  result.Add("sim.events", static_cast<double>(o.events), "count");
  result.Add("sim.self_frac", frac(Layer::kSimStep), "frac");
  result.Add("net.tuples_per_update",
             Share(o.net.TotalPayload(), updates), "ratio");
  result.Add("net.retransmissions",
             static_cast<double>(o.net.reliability.retransmissions), "count");
  result.Add("net.acks", static_cast<double>(o.net.reliability.acks_sent),
             "count");
  result.Add("net.drops",
             static_cast<double>(o.net.reliability.drops_injected), "count");
  result.Add("source.query_frac", frac(Layer::kSourceQuery), "frac");
  result.Add("source.commit_frac", frac(Layer::kSourceCommit), "frac");
  result.Add("storage.index_probes",
             static_cast<double>(o.storage.index_probes), "count");
  result.Add("storage.matches_per_probe",
             Share(o.storage.index_matches, o.storage.index_probes),
             "ratio");
  result.Add("storage.scan_fallbacks",
             static_cast<double>(o.storage.scan_fallbacks), "count");
  result.Add("core.update_frac", frac(Layer::kCoreUpdate), "frac");
  result.Add("core.answer_frac", frac(Layer::kCoreAnswer), "frac");
  result.Add("core.compensations_per_update",
             Share(o.compensations, updates), "ratio");
  result.Add("core.queue_depth_mean", queue_mean, "count");
  result.Add("core.queue_depth_max", static_cast<double>(queue_max),
             "count");
  result.Add("core.foreign_discards",
             static_cast<double>(o.foreign_discards), "count");
  result.Add("ckpt.count", static_cast<double>(o.checkpoints), "count");
  result.Add("ckpt.bytes_max", static_cast<double>(o.checkpoint_bytes_max),
             "bytes");
  result.Add("ckpt.serialize_ms_final", 1000.0 * serialize_s, "ms");
  result.Add("ckpt.recover_frac", frac(Layer::kCrashRecover), "frac");
  result.Add("ckpt.wal_replayed", static_cast<double>(o.wal_replayed),
             "count");
  result.Add("batch.submit_frac", frac(Layer::kBatchSubmit), "frac");
  result.Add("batch.txns_per_commit", Share(o.txns, updates), "ratio");
  result.Add("batch.noop_batches", static_cast<double>(o.noop_batches),
             "count");
  result.Add("router.frac", frac(Layer::kRouter), "frac");
  result.Add("router.updates_broadcast",
             static_cast<double>(o.updates_broadcast), "count");
  result.Add("workload.gen_s", Summarize(gen_s).median, "s");
  result.Add("consistency.check_s", check_s, "s");
  result.Add("ingest.staleness_p50_ticks", o.staleness.p50, "ticks");
  result.Add("ingest.staleness_p99_ticks", o.staleness.p99, "ticks");
  result.Add("ingest.msgs_per_update",
             Share(o.net.Of(MessageClass::kQueryRequest).messages +
                       o.net.Of(MessageClass::kQueryAnswer).messages,
                   updates),
             "ratio");
  AddTraceMetrics(&result, tracer, traced_total, traced_run_s,
                  untraced_run_s, options.trace_dir, name);
  return result;
}

std::string CompareWithHarness(const std::string& name, uint64_t seed) {
  SWEEP_CHECK_MSG(IsIngestWorkload(name), "unknown ingest workload");
  // The smoke-size first input set; the full install log makes
  // RunScenario's installs count comparable.
  IngestSpec logged =
      MakeIngestSpec(name, VariantSeed(seed, 0), /*smoke=*/true);
  logged.base.warehouse.base.log_installs = true;
  std::deque<Inputs> inputs = Generate(logged);
  const FaultPlan plan = PlanFor(logged, inputs);
  Deployment deployment(logged, plan, &inputs, nullptr);
  deployment.Run();
  const Outcome ours = deployment.Collect();

  std::string diff;
  auto expect = [&](bool same, const char* what) {
    if (same) return;
    diff += StrFormat("%s%s differs", diff.empty() ? "" : "; ", what);
  };
  if (logged.shards == 0) {
    ScenarioConfig config = logged.base;
    config.fault_plan = plan;
    config.check_consistency = true;
    const RunResult theirs = RunScenario(config);
    expect(theirs.final_view == ours.views.front(), "final view");
    expect(theirs.installs == ours.installs, "installs");
    expect(theirs.net == ours.net, "network stats");
    expect(theirs.compensations == ours.compensations, "compensations");
    expect(theirs.consistency.final_state_correct, "harness replay verdict");
  } else {
    ShardedScenarioConfig config;
    config.base = logged.base;
    config.base.check_consistency = true;
    config.num_shards = logged.shards;
    config.num_views = logged.views;
    config.batching = logged.batching;
    config.batch = logged.batch;
    const ShardedRunResult theirs = RunShardedScenario(config);
    expect(theirs.final_view == ours.views.front(), "final view");
    expect(theirs.installs == ours.installs, "installs");
    expect(theirs.net == ours.net, "network stats");
    expect(theirs.foreign_discards == ours.foreign_discards,
           "foreign discards");
    expect(theirs.txns_submitted == ours.txns, "client txns");
    expect(theirs.updates_committed == ours.commits, "commits");
    expect(theirs.staleness.p99 == ours.staleness.p99, "staleness p99");
    expect(theirs.all_groups_correct, "harness replay verdict");
  }
  return diff;
}

}  // namespace sweepbench
