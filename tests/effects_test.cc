// Refined independence (src/verify/effects.h): one grant beyond the site
// rule, a controlled warehouse crash commuting with a source transaction,
// and the runtime oracle that replays every grant the explorer uses in
// both orders (CommuteAt).
//
// The load-bearing assertions:
//   * the refined relation is the site rule plus exactly that grant, on
//     every label pair of every scenario family;
//   * it never changes a verdict — worst level, violation count and
//     exhaustion match the site-rule baseline on every scenario, engine
//     and thread count;
//   * it prunes strictly more schedules exactly where it has something
//     to say (crash scenarios) and exactly nothing where it does not
//     (the fault-free worked example, which has no crash);
//   * the oracle tells a commuting pair from a non-commuting one, passes
//     on every grant of the acceptance scenarios, and leaves every count
//     of the run it checks unchanged.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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

bool IsCrash(const EventLabel& label) {
  return label.kind == EventKind::kInternal &&
         std::string(label.what) == "warehouse-crash";
}

// Every label `scenario` can put in a ready set or a sleep set:
// deliveries between any two sites, each source's transaction, the crash
// and the arm-drop when the scenario schedules them, and an untagged
// internal event (a sleep-set entry rebuilt from its channel head).
std::vector<EventLabel> ProducibleLabels(const ControlledScenario& scenario) {
  const int n = scenario.view.num_relations();
  const int num_sources = RequiresSingleSource(scenario.algorithm) ? 1 : n;
  const int last_site = n + static_cast<int>(scenario.extra_warehouses.size());
  std::vector<EventLabel> labels;
  for (int from = 0; from <= last_site; ++from) {
    for (int to = 0; to <= last_site; ++to) {
      if (from != to) {
        labels.push_back(EventLabel{EventKind::kDelivery, from, to, "message"});
      }
    }
  }
  for (int site = 1; site <= num_sources; ++site) {
    labels.push_back(TxnLabel(site));
  }
  if (scenario.warehouse_crashes > 0) labels.push_back(CrashLabel());
  if (scenario.max_message_drops > 0) {
    labels.push_back(EventLabel{EventKind::kInternal, -1, 0, "arm-drop"});
  }
  labels.push_back(EventLabel{EventKind::kInternal, -1, -1, ""});
  return labels;
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
  // The one grant: a crash writes only warehouse state and order-blind
  // counters, disjoint from a source transaction's writes.
  EXPECT_TRUE(index.Commute(CrashLabel(), TxnLabel(1)));
  EXPECT_TRUE(index.Commute(TxnLabel(2), CrashLabel()));
  // One FIFO channel: two transactions at the same source never commute.
  EXPECT_FALSE(index.Commute(TxnLabel(1), TxnLabel(1)));
  // Deliveries are the site rule's territory; the index declines them.
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
  // Internal vs txn: only the refined relation can grant it.
  EXPECT_TRUE(IndependentUnder(&index, CrashLabel(), TxnLabel(1), &grants));
  EXPECT_EQ(grants, 1);
  // Null index degrades to the site rule.
  EXPECT_FALSE(IndependentUnder(nullptr, CrashLabel(), TxnLabel(1), &grants));
  EXPECT_EQ(grants, 1);
}

TEST(EffectsIndexTest, GrantsOnlyCrashAgainstTransaction) {
  // The refined relation is the site rule plus one grant: a warehouse
  // crash commutes with a source transaction, unless the scenario can
  // arm a message drop. Checked over every label pair of the paper,
  // faulty, lossy and faulty+lossy examples for every algorithm, the ECA
  // anomaly, unfiltered recovery and the stress scenario with and
  // without crashes.
  std::vector<std::pair<std::string, ControlledScenario>> scenarios;
  for (Algorithm algorithm : AllAlgorithmVariants()) {
    const std::string name = AlgorithmName(algorithm);
    scenarios.emplace_back(name + " paper", PaperExampleScenario(algorithm));
    scenarios.emplace_back(name + " faulty",
                           FaultyPaperExampleScenario(algorithm));
    scenarios.emplace_back(name + " lossy",
                           LossyPaperExampleScenario(algorithm));
    ControlledScenario both = LossyPaperExampleScenario(algorithm);
    both.warehouse.base.checkpoint_every = 2;
    both.warehouse_crashes = 1;
    scenarios.emplace_back(name + " faulty+lossy", std::move(both));
  }
  scenarios.emplace_back("ECA anomaly", EcaAnomalyScenario(false));
  scenarios.emplace_back("unfiltered recovery", UnfilteredRecoveryScenario());
  for (bool crash : {false, true}) {
    scenarios.emplace_back(
        crash ? "stress with crashes" : "stress",
        GeneratedMultiViewScenario(Algorithm::kSweep, Algorithm::kNestedSweep,
                                   /*updates=*/1, crash));
  }
  ASSERT_EQ(scenarios.size(), 36u);

  int64_t granted = 0;
  for (const auto& [name, scenario] : scenarios) {
    const EffectsIndex index = EffectsIndex::ForScenario(scenario);
    const std::vector<EventLabel> labels = ProducibleLabels(scenario);
    for (const EventLabel& a : labels) {
      for (const EventLabel& b : labels) {
        const bool crash_vs_txn =
            (IsCrash(a) && b.kind == EventKind::kTxn) ||
            (IsCrash(b) && a.kind == EventKind::kTxn);
        const bool expected =
            Independent(a, b) ||
            (crash_vs_txn && scenario.max_message_drops == 0);
        int64_t grants = 0;
        EXPECT_EQ(IndependentUnder(&index, a, b, &grants), expected)
            << name << ": " << LabelToString(a) << " [" << a.what
            << "] vs " << LabelToString(b) << " [" << b.what << "]";
        EXPECT_EQ(grants, expected && !Independent(a, b) ? 1 : 0) << name;
        granted += grants;
      }
    }
  }
  // Every crash scenario without drops grants both orders of crash vs
  // each source's transaction: 8 faulty examples (ECA has one source),
  // unfiltered recovery and the stress scenario.
  EXPECT_EQ(granted, 2 * (7 * 3 + 1 + 3 + 3));
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
  // The worked example schedules no crash, so its only site-rule-
  // dependent pairs share a FIFO channel: the refined search must walk
  // the identical tree and grant nothing.
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
  // All three engines consult the index at their own call sites; the
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

// Runs the last ready event. Deliveries sort after transactions and
// internal events, so the crash runs only once nothing else is ready.
class LastReadyScheduler : public Scheduler {
 public:
  size_t Pick(const std::vector<Candidate>& ready) override {
    return ready.size() - 1;
  }
};

// An oracle run must count exactly what the same run without it counts:
// its replays charge nothing.
void ExpectSameCounts(const ExploreResult& plain, const ExploreResult& oracle) {
  EXPECT_EQ(plain.schedules, oracle.schedules);
  EXPECT_EQ(plain.sleep_pruned, oracle.sleep_pruned);
  EXPECT_EQ(plain.refined_grants, oracle.refined_grants);
  EXPECT_EQ(plain.executions, oracle.executions);
}

TEST(EffectsOracleTest, CommuteAtTellsCommutingPairsApart) {
  const ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  // At the root every transaction and the crash are ready.
  EXPECT_TRUE(CommuteAt(scenario, {}, CrashLabel(), TxnLabel(1)));
  EXPECT_TRUE(CommuteAt(scenario, {}, TxnLabel(3), CrashLabel()));

  // Walk one schedule that runs the crash last, and at every node where
  // a query answer is arriving at the warehouse, replay it against the
  // crash: an answer the warehouse applies before the crash and one it
  // discards as stale after recovery leave different states.
  LastReadyScheduler last;
  ControlledSystem system(scenario, &last);
  std::vector<size_t> path;
  int pairs = 0;
  int told_apart = 0;
  for (std::vector<Scheduler::Candidate> ready = system.Ready();
       !ready.empty(); ready = system.Ready()) {
    bool crash_ready = false;
    for (const Scheduler::Candidate& c : ready) {
      crash_ready = crash_ready || IsCrash(c.label);
    }
    for (const Scheduler::Candidate& c : ready) {
      if (!crash_ready || c.label.kind != EventKind::kDelivery ||
          c.label.to != 0 || std::string(c.label.what) != "answer") {
        continue;
      }
      ++pairs;
      std::string why;
      if (!CommuteAt(scenario, path, CrashLabel(), c.label, &why)) {
        ++told_apart;
        EXPECT_NE(why.find("different states"), std::string::npos) << why;
      }
    }
    path.push_back(ready.size() - 1);
    ASSERT_EQ(system.Run(1), 1);
  }
  EXPECT_GT(pairs, 0);
  EXPECT_GT(told_apart, 0);
}

TEST(EffectsOracleTest, PassesOnEveryPaperExampleSchedule) {
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExploreResult plain = ExploreExhaustive(
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index));
  ExploreResult result = ExploreExhaustive(RefinedConfig(
      scenario, ConsistencyLevel::kComplete, &index, /*oracle=*/true));
  // The fault-free example has no crash, so the oracle has nothing to
  // replay; the run must still count what the plain one counts.
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.schedules, 10);
  ExpectSameCounts(plain, result);
}

TEST(EffectsOracleTest, PassesOnEveryCrashSchedule) {
  // Every crash placement against every transaction is a grant, and the
  // crash rewrites the whole warehouse. Four threads: the frontier split
  // and the subtree tasks both grant, so both replay.
  ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config =
      RefinedConfig(scenario, ConsistencyLevel::kComplete, &index);
  config.threads = 4;
  ExploreResult plain = ExploreExhaustive(config);
  config.effects_oracle = true;
  // SWEEP_CHECK aborts inside the exploration if any grant's two orders
  // disagree; surviving to here IS the pass.
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.refined_grants, 0);
  ExpectSameCounts(plain, result);
}

TEST(EffectsOracleTest, PassesOnGeneratedMultiViewSchedules) {
  // Two warehouses, two crash choice points. Crash recovery parks SWEEP
  // at strong consistency, the bar RefinedPrunesStrictlyMoreOnCrashScenario
  // uses.
  ControlledScenario scenario = GeneratedMultiViewScenario(
      Algorithm::kSweep, Algorithm::kNestedSweep, /*updates=*/1,
      /*crash=*/true);
  EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config =
      RefinedConfig(std::move(scenario), ConsistencyLevel::kStrong, &index);
  // Cap the schedule budget so the test stays seconds, not minutes.
  // Every grant in the schedules that do run is replayed.
  config.max_schedules = 2'000;
  ExploreResult plain = ExploreExhaustive(config);
  config.effects_oracle = true;
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_GT(result.schedules, 100);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.refined_grants, 0);
  ExpectSameCounts(plain, result);
}

TEST(EffectsOracleDeathTest, RequiresAnEffectsIndex) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ExplorerConfig config =
      RefinedConfig(PaperExampleScenario(Algorithm::kSweep),
                    ConsistencyLevel::kComplete, nullptr, /*oracle=*/true);
  EXPECT_DEATH(ExploreExhaustive(config),
               "the effect oracle needs an effects index");
}

}  // namespace
}  // namespace sweepmv
