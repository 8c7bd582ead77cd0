// Regression tests for the schedule-space explorer (src/verify/): the
// paper's consistency guarantees hold on *every* FIFO-respecting
// interleaving of the worked example, naive (compensation-off) ECA does
// not, the counterexample replays byte-identically, and sleep-set POR
// actually reduces the enumeration.

#include <gtest/gtest.h>

#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

ExplorerConfig ExhaustiveConfig(ControlledScenario scenario,
                                ConsistencyLevel required,
                                bool sleep_sets = true) {
  ExplorerConfig config{std::move(scenario), required, sleep_sets,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  return config;
}

TEST(ExplorerTest, SweepCompleteOnEveryInterleaving) {
  ExploreResult result = ExploreExhaustive(ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_EQ(result.worst, ConsistencyLevel::kComplete);
  // The worked example has genuinely concurrent interference to explore.
  EXPECT_GT(result.schedules, 10);
  EXPECT_GT(result.decision_points, 0);
}

TEST(ExplorerTest, NestedSweepKeepsItsPromiseOnEveryInterleaving) {
  ExploreResult result = ExploreExhaustive(
      ExhaustiveConfig(PaperExampleScenario(Algorithm::kNestedSweep),
                       PromisedConsistency(Algorithm::kNestedSweep)));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GE(result.worst, ConsistencyLevel::kStrong);
}

TEST(ExplorerTest, PartialOrderReductionPrunesAtLeast2x) {
  ExploreResult por = ExploreExhaustive(ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
      /*sleep_sets=*/true));
  ExploreResult naive = ExploreExhaustive(ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
      /*sleep_sets=*/false));
  ASSERT_TRUE(por.exhausted);
  ASSERT_TRUE(naive.exhausted);
  EXPECT_GE(naive.schedules, 2 * por.schedules);
  EXPECT_GT(por.sleep_pruned, 0);
  EXPECT_EQ(naive.sleep_pruned, 0);
  // Cross-validation: pruning must not change the verdict.
  EXPECT_EQ(por.worst, naive.worst);
  EXPECT_EQ(por.violations, naive.violations);
}

TEST(ExplorerTest, ExactScheduleBudgetCoversTheSpace) {
  // The worked example has 72 schedules under POR. A budget of exactly 72
  // covers the space; the search stops only when a 73rd would be
  // classified, so 71 does not.
  ExplorerConfig config = ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete);
  ExplorerConfig stateless = config;
  stateless.share_prefixes = false;
  ExplorerConfig snapshot = config;
  snapshot.use_undo = false;
  ExplorerConfig parallel = config;
  parallel.threads = 4;
  const std::pair<const char*, ExplorerConfig> engines[] = {
      {"stateless", stateless},
      {"snapshot", snapshot},
      {"undo", config},
      {"4 threads", parallel}};
  for (auto [name, engine] : engines) {
    engine.max_schedules = 72;
    const ExploreResult exact = ExploreExhaustive(engine);
    EXPECT_TRUE(exact.exhausted) << name;
    EXPECT_EQ(exact.schedules, 72) << name;
    if (engine.threads > 1) continue;
    engine.max_schedules = 71;
    const ExploreResult short_by_one = ExploreExhaustive(engine);
    EXPECT_FALSE(short_by_one.exhausted) << name;
    EXPECT_EQ(short_by_one.schedules, 71) << name;
  }
  // With threads > 1 the budget bounds each subtree task: every task of
  // the four-thread split classifies at most 18 schedules, so all 72 are
  // covered.
  parallel.max_schedules = 18;
  const ExploreResult per_task = ExploreExhaustive(parallel);
  EXPECT_TRUE(per_task.exhausted);
  EXPECT_EQ(per_task.schedules, 72);
}

TEST(ExplorerTest, CompensatingEcaConsistentOnEveryInterleaving) {
  ExploreResult result = ExploreExhaustive(
      ExhaustiveConfig(EcaAnomalyScenario(/*compensation=*/true),
                       PromisedConsistency(Algorithm::kEca)));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
}

TEST(ExplorerTest, FindsAndMinimizesEcaAnomalyCounterexample) {
  ExplorerConfig config{EcaAnomalyScenario(/*compensation=*/false),
                        ConsistencyLevel::kConvergent,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/true,
                        /*minimize=*/true};
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_GT(result.violations, 0);
  ASSERT_TRUE(result.counterexample.has_value());
  const Counterexample& cx = *result.counterexample;
  // The minimized schedule still violates convergence: the naive answer
  // double-counts the racing insert.
  EXPECT_EQ(cx.report.level, ConsistencyLevel::kInconsistent);
  EXPECT_FALSE(cx.trace.steps.empty());
  // Minimal means minimal: no trailing default picks survive (the empty
  // vector — "the default schedule already races" — is legal).
  if (!cx.choices.empty()) {
    EXPECT_NE(cx.choices.back(), 0u);
  }
  // The minimized vector reproduces the violation on its own.
  ControlledOutcome replay = RunWithChoices(config.scenario, cx.choices,
                                            /*max_steps=*/10'000);
  EXPECT_LT(replay.report.level, ConsistencyLevel::kConvergent);
}

TEST(ExplorerTest, EcaAnomalyIsScheduleDependent) {
  // The race only fires on *some* interleavings: schedules that finish
  // the first update's query before the second source transaction runs
  // are clean even without compensation. The explorer's search is what
  // separates the two — a fixed-clock run could land on either side.
  ExplorerConfig config =
      ExhaustiveConfig(EcaAnomalyScenario(/*compensation=*/false),
                       ConsistencyLevel::kConvergent);
  ExploreResult result = ExploreExhaustive(config);
  ASSERT_TRUE(result.exhausted);
  EXPECT_GT(result.violations, 0);
  EXPECT_LT(result.violations, result.schedules);
  EXPECT_EQ(result.worst, ConsistencyLevel::kInconsistent);
}

TEST(ExplorerTest, CounterexampleReplaysByteIdentically) {
  ExplorerConfig config{EcaAnomalyScenario(/*compensation=*/false),
                        ConsistencyLevel::kConvergent,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/true,
                        /*minimize=*/true};
  ExploreResult result = ExploreExhaustive(config);
  ASSERT_TRUE(result.counterexample.has_value());
  const Counterexample& cx = *result.counterexample;

  ControlledOutcome first =
      RunWithChoices(config.scenario, cx.choices, 10'000);
  ControlledOutcome second =
      RunWithChoices(config.scenario, cx.choices, 10'000);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
  EXPECT_EQ(first.trace.ToString(), cx.trace.ToString());
  EXPECT_EQ(first.report.level, cx.report.level);
  EXPECT_LT(first.report.level, ConsistencyLevel::kConvergent);
}

TEST(ExplorerTest, RandomWalksFindTheEcaAnomaly) {
  ExplorerConfig config{EcaAnomalyScenario(/*compensation=*/false),
                        ConsistencyLevel::kConvergent,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/true,
                        /*minimize=*/true};
  ExploreResult result = ExploreRandom(config, /*walks=*/500, /*seed=*/7);
  EXPECT_GT(result.violations, 0);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_LT(result.counterexample->report.level,
            ConsistencyLevel::kConvergent);
}

TEST(ExplorerTest, RandomWalksAreSeedDeterministic) {
  ExplorerConfig config = ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete);
  ExploreResult a = ExploreRandom(config, /*walks=*/20, /*seed=*/99);
  ExploreResult b = ExploreRandom(config, /*walks=*/20, /*seed=*/99);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.decision_points, b.decision_points);
  EXPECT_EQ(a.worst, b.worst);
}

// --- Fault-aware exploration -----------------------------------------
//
// The crash/recover and message-drop events are internal choice points:
// the explorer places them at every schedule position, so "exhausted,
// zero violations" certifies the recovery protocol across every
// interleaving containing the fault — not just the one a fixed clock
// happens to produce.

TEST(ExplorerTest, SweepCompleteOnEveryCrashInterleaving) {
  ExploreResult result = ExploreExhaustive(
      ExhaustiveConfig(FaultyPaperExampleScenario(Algorithm::kSweep),
                       ConsistencyLevel::kComplete));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_EQ(result.worst, ConsistencyLevel::kComplete);
  // The crash event multiplies the schedule space: strictly more
  // schedules than the fault-free worked example.
  ExploreResult baseline = ExploreExhaustive(ExhaustiveConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete));
  EXPECT_GT(result.schedules, baseline.schedules);
}

TEST(ExplorerTest, NestedSweepKeepsItsPromiseOnEveryCrashInterleaving) {
  ExploreResult result = ExploreExhaustive(
      ExhaustiveConfig(FaultyPaperExampleScenario(Algorithm::kNestedSweep),
                       PromisedConsistency(Algorithm::kNestedSweep)));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GE(result.worst, ConsistencyLevel::kStrong);
}

TEST(ExplorerTest, FindsCounterexampleWhenEpochFilterIsAblated) {
  // Recovery rewinds the query-id counter, and with several pipelined
  // sweeps in flight the post-crash assignment of ids to hops depends on
  // answer arrival order — so with the epoch filter off, a dead
  // incarnation's answer can resolve a re-issued query that belongs to a
  // different sweep. The explorer finds the interleaving where that
  // breaks the run.
  ExplorerConfig config{UnfilteredRecoveryScenario(),
                        ConsistencyLevel::kConvergent,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/true,
                        /*minimize=*/true};
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_GT(result.violations, 0);
  ASSERT_TRUE(result.counterexample.has_value());
  const Counterexample& cx = *result.counterexample;
  EXPECT_EQ(cx.report.level, ConsistencyLevel::kInconsistent);
  // The minimized vector reproduces the violation on its own.
  ControlledOutcome replay = RunWithChoices(config.scenario, cx.choices,
                                            /*max_steps=*/10'000);
  EXPECT_LT(replay.report.level, ConsistencyLevel::kConvergent);
}

TEST(ExplorerTest, EpochFilterClosesTheRecoveryAnomaly) {
  // A/B against the ablation above: the identical scenario with the
  // filter restored is certified *complete* across the same schedule
  // space — stale-epoch filtering is exactly what closes the anomaly.
  ControlledScenario scenario = UnfilteredRecoveryScenario();
  scenario.warehouse.base.filter_stale_epochs = true;
  ExploreResult result = ExploreExhaustive(
      ExhaustiveConfig(std::move(scenario), ConsistencyLevel::kComplete));
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_EQ(result.worst, ConsistencyLevel::kComplete);
}

TEST(ExplorerTest, QueryLossIsHealedOnEveryInterleaving) {
  // One silent query-class message loss, placed anywhere: the timeout
  // re-issue (capped exponential backoff) heals it on every schedule.
  for (Algorithm a : {Algorithm::kSweep, Algorithm::kNestedSweep}) {
    ExploreResult result = ExploreExhaustive(ExhaustiveConfig(
        LossyPaperExampleScenario(a), PromisedConsistency(a)));
    EXPECT_TRUE(result.exhausted) << AlgorithmName(a);
    EXPECT_EQ(result.violations, 0) << AlgorithmName(a);
  }
}

TEST(ExplorerTest, StrobeFamilySurvivesExhaustiveExploration) {
  for (Algorithm a : {Algorithm::kStrobe, Algorithm::kCStrobe}) {
    ExploreResult result = ExploreExhaustive(ExhaustiveConfig(
        PaperExampleScenario(a), PromisedConsistency(a)));
    EXPECT_TRUE(result.exhausted) << AlgorithmName(a);
    EXPECT_EQ(result.violations, 0) << AlgorithmName(a);
  }
}

}  // namespace
}  // namespace sweepmv
