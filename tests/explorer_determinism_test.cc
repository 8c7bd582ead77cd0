// Determinism of the explorer's execution engines (src/verify/).
//
// The explorer has three ways to cover the same schedule space: the
// stateless replay engine, the prefix-sharing snapshot engine, and the
// parallel frontier split over the work-stealing pool. All three must
// agree bit-for-bit on everything schedule-determined — schedule counts,
// verdicts, sleep-set pruning statistics, and the minimized
// counterexample — for any thread count and any steal interleaving.
// These comparisons are what makes any timing of the fast engines
// meaningful: they answer the same question as the slow one.

#include <gtest/gtest.h>

#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

ExplorerConfig BaseConfig(ControlledScenario scenario,
                          ConsistencyLevel required, bool sleep_sets) {
  ExplorerConfig config{std::move(scenario), required, sleep_sets,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  return config;
}

// Everything schedule-determined must match; `executions` legitimately
// differs (it counts engine work, not coverage) and is deliberately
// excluded.
void ExpectSameVerdicts(const ExploreResult& a, const ExploreResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.schedules, b.schedules) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.worst, b.worst) << what;
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned) << what;
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked) << what;
  EXPECT_EQ(a.decision_points, b.decision_points) << what;
  EXPECT_EQ(a.max_ready, b.max_ready) << what;
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << what;
  if (a.counterexample.has_value()) {
    EXPECT_EQ(a.counterexample->choices, b.counterexample->choices) << what;
    EXPECT_EQ(a.counterexample->trace.ToString(),
              b.counterexample->trace.ToString())
        << what;
    EXPECT_EQ(a.counterexample->report.level, b.counterexample->report.level)
        << what;
  }
}

TEST(ExplorerDeterminismTest, PrefixSharingMatchesStatelessBaseline) {
  for (bool sleep_sets : {true, false}) {
    ExplorerConfig shared = BaseConfig(EcaAnomalyScenario(false),
                                       ConsistencyLevel::kConvergent,
                                       sleep_sets);
    ExplorerConfig replay = shared;
    replay.share_prefixes = false;
    ExpectSameVerdicts(ExploreExhaustive(replay),
                       ExploreExhaustive(shared),
                       sleep_sets ? "eca POR" : "eca naive");
  }
}

TEST(ExplorerDeterminismTest, SweepVerdictsAreEngineInvariant) {
  ExplorerConfig shared = BaseConfig(PaperExampleScenario(Algorithm::kSweep),
                                     ConsistencyLevel::kComplete,
                                     /*sleep_sets=*/true);
  ExplorerConfig replay = shared;
  replay.share_prefixes = false;
  ExploreResult a = ExploreExhaustive(replay);
  ExploreResult b = ExploreExhaustive(shared);
  EXPECT_TRUE(a.exhausted);
  EXPECT_EQ(a.violations, 0);
  ExpectSameVerdicts(a, b, "sweep POR");
  // Replay redundancy (executions / schedules) stays <= 1.5 with prefix
  // sharing; the stateless engine re-executes prefixes far above that.
  EXPECT_LE(2 * b.executions, 3 * b.schedules);
  EXPECT_GT(2 * a.executions, 3 * a.schedules);
}

TEST(ExplorerDeterminismTest, ThreadCountNeverChangesTheAnswer) {
  for (bool sleep_sets : {true, false}) {
    ExplorerConfig sequential = BaseConfig(EcaAnomalyScenario(false),
                                           ConsistencyLevel::kConvergent,
                                           sleep_sets);
    ExploreResult baseline = ExploreExhaustive(sequential);
    ASSERT_GT(baseline.violations, 0);
    ASSERT_TRUE(baseline.counterexample.has_value());
    for (int threads : {2, 4, 8}) {
      ExplorerConfig parallel = sequential;
      parallel.threads = threads;
      ExpectSameVerdicts(
          baseline, ExploreExhaustive(parallel),
          std::string(sleep_sets ? "POR" : "naive") + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST(ExplorerDeterminismTest, ParallelSweepExplorationIsExhaustive) {
  ExplorerConfig sequential = BaseConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
      /*sleep_sets=*/true);
  ExploreResult baseline = ExploreExhaustive(sequential);
  ASSERT_TRUE(baseline.exhausted);
  for (int threads : {2, 4, 8}) {
    ExplorerConfig parallel = sequential;
    parallel.threads = threads;
    ExploreResult result = ExploreExhaustive(parallel);
    EXPECT_TRUE(result.exhausted) << threads;
    ExpectSameVerdicts(baseline, result,
                       "sweep threads=" + std::to_string(threads));
  }
}

TEST(ExplorerDeterminismTest, ParallelRunsAreRepeatable) {
  // Two parallel runs with the same config — different steal orders at
  // the OS's whim — must agree with each other, counterexample included.
  ExplorerConfig config = BaseConfig(EcaAnomalyScenario(false),
                                     ConsistencyLevel::kConvergent,
                                     /*sleep_sets=*/true);
  config.threads = 4;
  ExploreResult first = ExploreExhaustive(config);
  ExploreResult second = ExploreExhaustive(config);
  ExpectSameVerdicts(first, second, "repeat threads=4");
  // Executions are also deterministic run-to-run for a fixed config: the
  // frontier split and per-task work don't depend on scheduling.
  EXPECT_EQ(first.executions, second.executions);
}

}  // namespace
}  // namespace sweepmv
