// Sharded SWEEP == unsharded SWEEP, byte for byte.
//
// The central claim of src/shard/ (docs/sharding.md): for any shard
// count, the merged final view (V_initial + every shard's fragment)
// equals the single-warehouse SWEEP final view on the same transaction
// schedule — on the paper's Section 5.2 example, on generated
// scenarios, with source-side batching, and across a source
// crash/restart plan. Sharding must also buy capacity in simulated
// time: four shards keep p99 submit->install staleness at twice the
// arrival rate no worse than one shard at the base rate.

#include <vector>

#include "gtest/gtest.h"
#include "harness/scenario.h"
#include "shard/sharded_scenario.h"
#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;

constexpr int kShardCounts[] = {1, 2, 4, 8};

// Figure 5's interleaving plus enough extra traffic to make several
// updates interfere (compensation on every shard count).
std::vector<ScheduledTxn> PaperTxns() {
  std::vector<ScheduledTxn> txns;
  auto add = [&](SimTime at, int rel, UpdateOp op) {
    txns.push_back(ScheduledTxn{at, rel, {std::move(op)}});
  };
  add(100, 1, UpdateOp::Insert(IntTuple({7, 5})));
  add(300, 0, UpdateOp::Insert(IntTuple({3, 3})));
  add(500, 2, UpdateOp::Insert(IntTuple({7, 9})));
  add(900, 1, UpdateOp::Delete(IntTuple({3, 7})));
  add(1100, 0, UpdateOp::Delete(IntTuple({1, 3})));
  add(1300, 2, UpdateOp::Insert(IntTuple({5, 2})));
  add(1700, 1, UpdateOp::Insert(IntTuple({3, 5})));
  add(2400, 0, UpdateOp::Insert(IntTuple({4, 3})));
  return txns;
}

ScenarioConfig BaseConfig() {
  ScenarioConfig config;
  config.algorithm = Algorithm::kSweep;
  config.latency = LatencyModel::Fixed(1000);
  return config;
}

TEST(ShardEquivalence, PaperExampleMatchesUnshardedAcrossShardCounts) {
  const ViewDef view = PaperView();
  const std::vector<Relation> bases = PaperBases(view);
  const std::vector<ScheduledTxn> txns = PaperTxns();

  const RunResult unsharded =
      RunExplicitScenario(BaseConfig(), view, bases, txns);
  ASSERT_EQ(unsharded.final_view, unsharded.expected_view);

  for (int shards : kShardCounts) {
    ShardedScenarioConfig config;
    config.base = BaseConfig();
    config.num_shards = shards;
    const ShardedRunResult sharded =
        RunShardedExplicit(config, view, bases, txns);
    EXPECT_TRUE(sharded.completed);
    EXPECT_EQ(sharded.final_view, unsharded.final_view)
        << "merged view diverged at " << shards << " shards";
    EXPECT_EQ(sharded.final_view, sharded.expected_view);
    EXPECT_TRUE(sharded.all_groups_correct);
    // Clean FIFO runs retire every arrival in order on every shard: the
    // per-shard projection of SWEEP's complete consistency.
    EXPECT_EQ(sharded.shard_consistency.level, ConsistencyLevel::kComplete)
        << sharded.shard_consistency.detail;
    EXPECT_TRUE(sharded.shard_consistency.ownership_partition);
    EXPECT_TRUE(sharded.shard_consistency.retire_order_monotone);
    // Every shard saw every update; non-owned ones were discarded.
    EXPECT_EQ(sharded.installs + sharded.foreign_discards,
              sharded.updates_committed * shards);
    for (const auto& versions : sharded.shard_consistency.version_vectors) {
      int64_t total = 0;
      for (int64_t v : versions) total += v;
      EXPECT_EQ(total, sharded.updates_committed);
    }
  }
}

TEST(ShardEquivalence, GeneratedScenarioMatchesUnsharded) {
  ScenarioConfig base = BaseConfig();
  base.chain.num_relations = 3;
  base.chain.initial_tuples = 16;
  base.chain.join_domain = 6;
  base.workload.total_txns = 120;
  base.workload.mean_interarrival = 900.0;
  base.workload.seed = 21;

  ViewDef view = MakeChainView(base.chain);
  std::vector<Relation> bases = MakeInitialBases(view, base.chain);
  std::vector<ScheduledTxn> txns =
      GenerateWorkload(view, bases, base.chain, base.workload);

  const RunResult unsharded = RunExplicitScenario(base, view, bases, txns);
  ASSERT_EQ(unsharded.final_view, unsharded.expected_view);

  for (int shards : kShardCounts) {
    ShardedScenarioConfig config;
    config.base = base;
    config.num_shards = shards;
    const ShardedRunResult sharded =
        RunShardedExplicit(config, view, bases, txns);
    EXPECT_EQ(sharded.final_view, unsharded.final_view)
        << "merged view diverged at " << shards << " shards";
    EXPECT_EQ(sharded.shard_consistency.level,
              ConsistencyLevel::kComplete)
        << sharded.shard_consistency.detail;
    // Staleness is measured for every committed update.
    EXPECT_EQ(sharded.staleness.samples, sharded.updates_committed);
    EXPECT_GE(sharded.staleness.p99, sharded.staleness.p50);
  }
}

// Batching regroups transactions into fewer, larger updates; the final
// base states are identical, so the merged view must still match the
// UNBATCHED unsharded run.
TEST(ShardEquivalence, BatchedMatchesUnbatchedUnsharded) {
  ScenarioConfig base = BaseConfig();
  base.chain.initial_tuples = 16;
  base.workload.total_txns = 150;
  base.workload.mean_interarrival = 400.0;
  base.workload.key_skew = 0.7;
  base.workload.key_domain = 32;
  base.workload.seed = 5;

  ViewDef view = MakeChainView(base.chain);
  std::vector<Relation> bases = MakeInitialBases(view, base.chain);
  std::vector<ScheduledTxn> txns =
      GenerateWorkload(view, bases, base.chain, base.workload);

  const RunResult unsharded = RunExplicitScenario(base, view, bases, txns);
  ASSERT_EQ(unsharded.final_view, unsharded.expected_view);

  for (int shards : kShardCounts) {
    ShardedScenarioConfig config;
    config.base = base;
    config.num_shards = shards;
    config.batching = true;
    config.batch.max_batch = 8;
    config.batch.max_delay = 3000;
    const ShardedRunResult sharded =
        RunShardedExplicit(config, view, bases, txns);
    EXPECT_EQ(sharded.final_view, unsharded.final_view)
        << "batched merged view diverged at " << shards << " shards";
    EXPECT_EQ(sharded.txns_submitted, int64_t{150});
    // Batching must actually coalesce: fewer update messages than client
    // transactions (hot-key churn also cancels whole batches).
    EXPECT_LT(sharded.updates_committed, sharded.txns_submitted);
    EXPECT_GT(sharded.batches_flushed, 0);
    EXPECT_EQ(sharded.shard_consistency.level,
              ConsistencyLevel::kComplete)
        << sharded.shard_consistency.detail;
  }
}

// A source crash/restart mid-run: the replayed notifications are deduped
// at every shard, queries lost with the crashed source are re-issued on
// timeout, and the merged view still converges to the sources' truth on
// every shard count.
TEST(ShardEquivalence, SurvivesSourceCrashRestart) {
  ScenarioConfig base = BaseConfig();
  base.chain.initial_tuples = 12;
  base.workload.total_txns = 80;
  base.workload.mean_interarrival = 1500.0;
  // Insert-only: a txn refused by the crashed source must not be the
  // insert a later generated delete assumes happened.
  base.workload.insert_fraction = 1.0;
  base.workload.seed = 33;
  base.fault_plan.enabled = true;
  base.fault_plan.reliability = true;
  base.fault_plan.query_timeout = 50'000;
  base.fault_plan.crashes = {{/*relation=*/1, /*crash_at=*/40'000,
                              /*restart_at=*/90'000}};

  ViewDef view = MakeChainView(base.chain);
  std::vector<Relation> bases = MakeInitialBases(view, base.chain);
  std::vector<ScheduledTxn> txns =
      GenerateWorkload(view, bases, base.chain, base.workload);

  for (int shards : kShardCounts) {
    ShardedScenarioConfig config;
    config.base = base;
    config.num_shards = shards;
    const ShardedRunResult sharded =
        RunShardedExplicit(config, view, bases, txns);
    EXPECT_TRUE(sharded.completed);
    EXPECT_EQ(sharded.final_view, sharded.expected_view)
        << "crash run diverged at " << shards << " shards";
    EXPECT_TRUE(sharded.all_groups_correct);
    // Replayed duplicates must have been ignored somewhere (the crash
    // happens mid-traffic, so the log replay re-sends real updates).
    EXPECT_GT(sharded.duplicate_updates_ignored, 0);
    // Convergence is guaranteed; the replay storm may interleave with
    // live traffic, so only the final state is pinned here.
    EXPECT_GE(static_cast<int>(sharded.shard_consistency.level),
              static_cast<int>(ConsistencyLevel::kConvergent));
  }
}

// Shard checkpoints: with a durability cadence on, every shard cuts
// checkpoints (covering the new shard fields) and the run still matches.
TEST(ShardEquivalence, DurableShardsStillMatch) {
  const ViewDef view = PaperView();
  const std::vector<Relation> bases = PaperBases(view);
  const std::vector<ScheduledTxn> txns = PaperTxns();

  const RunResult unsharded =
      RunExplicitScenario(BaseConfig(), view, bases, txns);

  ShardedScenarioConfig config;
  config.base = BaseConfig();
  config.base.fault_plan.enabled = true;
  config.base.fault_plan.checkpoint_every = 2;
  config.base.fault_plan.query_timeout = 50'000;
  config.num_shards = 4;
  const ShardedRunResult sharded =
      RunShardedExplicit(config, view, bases, txns);
  EXPECT_EQ(sharded.final_view, unsharded.final_view);
  EXPECT_EQ(sharded.shard_consistency.level, ConsistencyLevel::kComplete)
      << sharded.shard_consistency.detail;
}

// Shards add capacity in simulated time: past one warehouse's
// saturation (a routed sweep takes ~8k ticks) its queue grows without
// bound, while four shards split the sweeps and stay fresh. Unbatched
// hot-key churn, one op per client transaction, consistency checked.
TEST(ShardEquivalence, FourShardsSustainTwiceTheArrivalRate) {
  auto run = [](int shards, double interarrival) {
    ShardedScenarioConfig config;
    config.base = BaseConfig();
    config.base.chain.num_relations = 3;
    config.base.chain.initial_tuples = 32;
    config.base.chain.join_domain = 64;
    config.base.workload.total_txns = 2'000;
    config.base.workload.mean_interarrival = interarrival;
    config.base.workload.max_ops_per_txn = 1;
    config.base.workload.key_skew = 0.8;
    config.base.workload.key_domain = 256;
    config.num_shards = shards;
    SCOPED_TRACE(::testing::Message()
                 << shards << " shards @" << interarrival);
    const ShardedRunResult result = RunShardedScenario(config);
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.all_groups_correct);
    return result.staleness.p99;
  };
  const double single_fresh = run(1, 12'000.0);
  const double sharded_fast = run(4, 6'000.0);
  const double single_fast = run(1, 6'000.0);
  EXPECT_LE(sharded_fast, single_fresh);
  // The same arrival rate saturates one shard: the bar above separates.
  EXPECT_GT(single_fast, 10 * single_fresh);
}

// Multi-view generated mode: independent groups, one shared network.
TEST(ShardEquivalence, MultiViewGroupsAllCorrect) {
  ShardedScenarioConfig config;
  config.base = BaseConfig();
  config.base.chain.initial_tuples = 10;
  config.base.workload.total_txns = 30;
  config.base.workload.mean_interarrival = 2000.0;
  config.num_views = 3;
  config.num_shards = 2;
  const ShardedRunResult result = RunShardedScenario(config);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.all_groups_correct);
  EXPECT_EQ(result.num_views, 3);
  EXPECT_EQ(result.shard_consistency.level, ConsistencyLevel::kComplete)
      << result.shard_consistency.detail;
}

}  // namespace
}  // namespace sweepmv
