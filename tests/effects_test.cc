// Refined independence (src/verify/effects.h): the statically inferred
// effect table grants commutes the site rule cannot — a controlled
// warehouse crash against a source transaction — and the runtime oracle
// certifies the table over-approximates every executed handler.
//
// The load-bearing assertions:
//   * the refined relation never changes a verdict — worst level,
//     violation count and exhaustion match the site-rule baseline on
//     every scenario, engine and thread count;
//   * it prunes strictly more schedules exactly where the table has
//     something to say (crash scenarios) and exactly nothing where it
//     does not (the fault-free worked example, whose only dependent
//     pairs are same-channel);
//   * the effect oracle — observed write set ⊆ static write footprint,
//     checked after every executed step — passes on every explored
//     schedule of the acceptance scenarios.

#include <gtest/gtest.h>

#include "verify/effects.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

ExplorerConfig RefinedConfig(ControlledScenario scenario,
                             ConsistencyLevel required,
                             const EffectsIndex* effects,
                             bool oracle = false) {
  ExplorerConfig config{std::move(scenario), required,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  config.effects = effects;
  config.effects_oracle = oracle;
  return config;
}

EventLabel CrashLabel() {
  return EventLabel{EventKind::kInternal, -1, 0, "warehouse-crash"};
}

EventLabel TxnLabel(int site) {
  return EventLabel{EventKind::kTxn, -1, site, "txn"};
}

// The verdict fields every relation refinement must leave untouched.
void ExpectSameVerdicts(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.exhausted, b.exhausted);
}

TEST(EffectsIndexTest, CrashCommutesWithSourceTransaction) {
  EffectsIndex index =
      EffectsIndex::ForScenario(FaultyPaperExampleScenario(Algorithm::kSweep));
  EXPECT_GT(index.num_rows(), 0);
  // The winning grant: the crash row touches only warehouse state and
  // global counters disjoint from a source's transaction footprint.
  EXPECT_TRUE(index.Commute(CrashLabel(), TxnLabel(1)));
  EXPECT_TRUE(index.Commute(TxnLabel(2), CrashLabel()));
  // One FIFO channel: two transactions at the same source never commute.
  EXPECT_FALSE(index.Commute(TxnLabel(1), TxnLabel(1)));
  // Deliveries are the site rule's territory; the table declines them.
  EventLabel deliver{EventKind::kDelivery, 1, 0, "message"};
  EXPECT_FALSE(index.Commute(deliver, TxnLabel(1)));
}

TEST(EffectsIndexTest, IndependentUnderCountsOnlyRefinedGrants) {
  EffectsIndex index =
      EffectsIndex::ForScenario(FaultyPaperExampleScenario(Algorithm::kSweep));
  int64_t grants = 0;
  // Different affected sites: the site rule grants this alone.
  EXPECT_TRUE(IndependentUnder(&index, TxnLabel(1), TxnLabel(2), &grants));
  EXPECT_EQ(grants, 0);
  // Internal vs txn: only the effect table can grant it.
  EXPECT_TRUE(IndependentUnder(&index, CrashLabel(), TxnLabel(1), &grants));
  EXPECT_EQ(grants, 1);
  // Null index degrades to the site rule.
  EXPECT_FALSE(IndependentUnder(nullptr, CrashLabel(), TxnLabel(1), &grants));
  EXPECT_EQ(grants, 1);
}

TEST(EffectsTest, RefinedPrunesStrictlyMoreOnCrashScenario) {
  struct Case {
    ControlledScenario scenario;
    ConsistencyLevel required;
    const char* name;
  };
  Case cases[] = {
      {FaultyPaperExampleScenario(Algorithm::kSweep),
       ConsistencyLevel::kComplete, "faulty"},
      // Two warehouses, two crash choice points. Crash recovery parks
      // SWEEP at strong consistency, the level Nested SWEEP promises.
      {GeneratedMultiViewScenario(Algorithm::kSweep,
                                  Algorithm::kNestedSweep, /*updates=*/1,
                                  /*crash=*/true),
       ConsistencyLevel::kStrong, "stress"},
  };
  for (const Case& c : cases) {
    EffectsIndex index = EffectsIndex::ForScenario(c.scenario);
    ExploreResult baseline =
        ExploreExhaustive(RefinedConfig(c.scenario, c.required, nullptr));
    ExploreResult refined =
        ExploreExhaustive(RefinedConfig(c.scenario, c.required, &index));
    ASSERT_TRUE(baseline.exhausted) << c.name;
    ASSERT_TRUE(refined.exhausted) << c.name;
    ExpectSameVerdicts(baseline, refined);
    EXPECT_GE(refined.worst, c.required) << c.name;
    EXPECT_EQ(refined.violations, 0) << c.name;
    // The crash/txn grants must actually buy pruning the site rule
    // cannot: strictly fewer explored schedules covering the same trace
    // classes. (sleep_pruned itself is not monotone — subtrees pruned
    // earlier never get visited, so their would-be prune events are
    // never recorded.)
    EXPECT_GT(refined.refined_grants, 0) << c.name;
    EXPECT_EQ(baseline.refined_grants, 0) << c.name;
    EXPECT_LT(refined.schedules, baseline.schedules) << c.name;
  }
}

TEST(EffectsTest, RefinedIsZeroGainOnFaultFreeExample) {
  // The worked example's only site-rule-dependent pairs share a FIFO
  // channel, which no effect table may reorder: the refined search must
  // walk the identical tree and grant nothing.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExploreResult baseline = ExploreExhaustive(
      RefinedConfig(scenario, ConsistencyLevel::kComplete, nullptr));
  ExploreResult refined = ExploreExhaustive(
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index));
  ASSERT_TRUE(refined.exhausted);
  ExpectSameVerdicts(baseline, refined);
  EXPECT_EQ(refined.refined_grants, 0);
  EXPECT_EQ(refined.schedules, baseline.schedules);
  EXPECT_EQ(refined.sleep_pruned, baseline.sleep_pruned);
}

TEST(EffectsTest, RefinedVerdictsIdenticalAcrossEngines) {
  // All three engines consult the table at their own call sites; the
  // refined schedule tree must be the same one regardless.
  ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExploreResult incremental = ExploreExhaustive(
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index));
  ExplorerConfig stateless =
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index);
  stateless.share_prefixes = false;
  ExploreResult replayed = ExploreExhaustive(stateless);
  ExplorerConfig parallel =
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index);
  parallel.threads = 4;
  parallel.dedup_states = true;
  ExploreResult threaded = ExploreExhaustive(parallel);
  ExpectSameVerdicts(incremental, replayed);
  ExpectSameVerdicts(incremental, threaded);
  EXPECT_EQ(incremental.schedules, replayed.schedules);
  EXPECT_EQ(incremental.schedules, threaded.schedules);
  EXPECT_EQ(incremental.sleep_pruned, replayed.sleep_pruned);
  EXPECT_EQ(incremental.refined_grants, replayed.refined_grants);
}

TEST(EffectsOracleTest, PassesOnEveryPaperExampleSchedule) {
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExploreResult result = ExploreExhaustive(RefinedConfig(
      scenario, ConsistencyLevel::kComplete, &index, /*oracle=*/true));
  // SWEEP_CHECK aborts inside the exploration if any executed step
  // writes outside its static footprint; surviving to here IS the pass.
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.schedules, 10);
}

TEST(EffectsOracleTest, PassesOnEveryCrashSchedule) {
  // The crash handler's footprint is the table's riskiest row — it
  // rewrites the whole warehouse plus the recovery counters — and every
  // crash placement exercises it.
  ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExploreResult result = ExploreExhaustive(RefinedConfig(
      scenario, ConsistencyLevel::kComplete, &index, /*oracle=*/true));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.refined_grants, 0);
}

TEST(EffectsOracleTest, PassesOnGeneratedMultiViewSchedules) {
  // Two warehouses, two crash choice points: the multi-view row set plus
  // repeated crash/recovery churn. Crash recovery parks SWEEP at strong
  // consistency, the bar RefinedPrunesStrictlyMoreOnCrashScenario uses.
  ControlledScenario scenario = GeneratedMultiViewScenario(
      Algorithm::kSweep, Algorithm::kNestedSweep, /*updates=*/1,
      /*crash=*/true);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config = RefinedConfig(
      std::move(scenario), ConsistencyLevel::kStrong, &index,
      /*oracle=*/true);
  // The oracle drains observation probes after every step; cap the
  // schedule budget so the test stays seconds, not minutes. Every
  // schedule that does run is fully checked.
  config.max_schedules = 2'000;
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_GT(result.schedules, 100);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.refined_grants, 0);
}

TEST(EffectsOracleDeathTest, RequiresTheUndoEngine) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config = RefinedConfig(
      std::move(scenario), ConsistencyLevel::kComplete, &index,
      /*oracle=*/true);
  config.use_undo = false;
  EXPECT_DEATH(ExploreExhaustive(config),
               "the effect oracle needs an effects index");
}

}  // namespace
}  // namespace sweepmv
