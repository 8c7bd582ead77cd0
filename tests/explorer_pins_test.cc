// Absolute pins for every engine of the schedule-space explorer
// (src/verify/explorer.*).
//
// The determinism and engine-invariance suites compare the engines with
// one another, so a defect that a shared piece of the search put into
// every engine at once would pass them. This suite compares each engine
// with constants instead: what it explored (schedules, verdicts, sleep-set
// statistics, the minimized counterexample) and how much work it did
// (executions, snapshot anchors, refined grants). The stateless engine's
// executions count its rebuilds and are not pinned.
//
// The constants were computed once, from a Release build, and are
// deliberately never regenerated: a change here means the explored tree
// or an engine's cost model changed.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/effects.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

enum Engine { kStateless, kSnapshot, kUndo, kUndoDedup, kFourThreads };
constexpr size_t kEngines = 5;
const char* const kEngineNames[kEngines] = {"stateless", "snapshot", "undo",
                                            "undo+dedup", "4 threads"};

constexpr int64_t kNotPinned = -1;

// The work one engine does on one scenario.
struct Work {
  int64_t refined_grants;
  int64_t executions;
  int64_t anchor_snapshots;
};

// What every engine reports for one scenario, then each engine's work in
// Engine order.
struct Pins {
  int64_t schedules;
  int64_t violations;
  ConsistencyLevel worst;
  int64_t sleep_pruned;
  int64_t sleep_blocked;
  int64_t decision_points;
  int64_t max_ready;
  bool exhausted;
  std::optional<std::vector<size_t>> counterexample;
  std::array<Work, kEngines> work;
};

ExplorerConfig PinConfig(ControlledScenario scenario,
                         ConsistencyLevel required, bool sleep_sets) {
  ExplorerConfig config{std::move(scenario), required, sleep_sets,
                        /*max_schedules=*/10'000'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  return config;
}

ExplorerConfig ForEngine(ExplorerConfig config, Engine engine) {
  switch (engine) {
    case kStateless:
      config.share_prefixes = false;
      break;
    case kSnapshot:
      config.use_undo = false;
      break;
    case kUndo:
      break;
    case kUndoDedup:
      config.dedup_states = true;
      break;
    case kFourThreads:
      config.threads = 4;
      break;
  }
  return config;
}

void ExpectPinned(const ExplorerConfig& base, const Pins& want) {
  for (size_t e = 0; e < kEngines; ++e) {
    const std::string what = kEngineNames[e];
    const ExploreResult r =
        ExploreExhaustive(ForEngine(base, static_cast<Engine>(e)));
    EXPECT_EQ(r.schedules, want.schedules) << what;
    EXPECT_EQ(r.violations, want.violations) << what;
    EXPECT_EQ(r.worst, want.worst) << what;
    EXPECT_EQ(r.sleep_pruned, want.sleep_pruned) << what;
    EXPECT_EQ(r.sleep_blocked, want.sleep_blocked) << what;
    EXPECT_EQ(r.decision_points, want.decision_points) << what;
    EXPECT_EQ(r.max_ready, want.max_ready) << what;
    EXPECT_EQ(r.exhausted, want.exhausted) << what;
    ASSERT_EQ(r.counterexample.has_value(), want.counterexample.has_value())
        << what;
    if (r.counterexample.has_value()) {
      EXPECT_EQ(r.counterexample->choices, *want.counterexample) << what;
    }
    const Work& work = want.work[e];
    EXPECT_EQ(r.refined_grants, work.refined_grants) << what;
    if (work.executions != kNotPinned) {
      EXPECT_EQ(r.executions, work.executions) << what;
    }
    EXPECT_EQ(r.anchor_snapshots, work.anchor_snapshots) << what;
  }
}

TEST(ExplorerPinTest, PaperExampleSweepUnderPor) {
  ExpectPinned(PinConfig(PaperExampleScenario(Algorithm::kSweep),
                         ConsistencyLevel::kComplete, /*sleep_sets=*/true),
               Pins{72, 0, ConsistencyLevel::kComplete, 242, 87, 269, 3,
                    true, std::nullopt,
                    {{{0, kNotPinned, 0},
                      {0, 72, 142},
                      {0, 72, 10},
                      {0, 72, 10},
                      {0, 158, 9}}}});
}

TEST(ExplorerPinTest, PaperExampleSweepNaive) {
  ExpectPinned(PinConfig(PaperExampleScenario(Algorithm::kSweep),
                         ConsistencyLevel::kComplete, /*sleep_sets=*/false),
               Pins{3005, 0, ConsistencyLevel::kComplete, 0, 0, 2844, 3,
                    true, std::nullopt,
                    {{{0, kNotPinned, 0},
                      {0, 3005, 2844},
                      {0, 3005, 343},
                      {0, 2256, 250},
                      {0, 3054, 342}}}});
}

TEST(ExplorerPinTest, EcaAnomalyUnderPorMinimized) {
  ExpectPinned(PinConfig(EcaAnomalyScenario(/*compensation=*/false),
                         ConsistencyLevel::kConvergent, /*sleep_sets=*/true),
               Pins{2, 1, ConsistencyLevel::kInconsistent, 3, 2, 4, 2, true,
                    std::vector<size_t>{},
                    {{{0, kNotPinned, 0},
                      {0, 4, 3},
                      {0, 4, 0},
                      {0, 4, 0},
                      {0, 22, 0}}}});
}

TEST(ExplorerPinTest, UnfilteredRecoveryUnderPorMinimized) {
  ExpectPinned(
      PinConfig(UnfilteredRecoveryScenario(), ConsistencyLevel::kConvergent,
                /*sleep_sets=*/true),
      Pins{360, 52, ConsistencyLevel::kInconsistent, 1832, 702, 1788, 4,
           true, std::vector<size_t>{1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1},
           {{{0, kNotPinned, 0},
             {0, 382, 912},
             {0, 382, 100},
             {0, 269, 73},
             {0, 456, 99}}}});
}

TEST(ExplorerPinTest, FaultySweepWithRefinedIndependence) {
  const ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  const EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config = PinConfig(
      scenario, PromisedConsistency(Algorithm::kSweep), /*sleep_sets=*/true);
  config.effects = &index;
  ExpectPinned(config, Pins{3168, 0, ConsistencyLevel::kComplete, 8668,
                            3877, 10318, 4, true, std::nullopt,
                            {{{193, kNotPinned, 0},
                              {193, 3168, 6462},
                              {193, 3168, 1024},
                              {193, 2387, 807},
                              {193, 3226, 1023}}}});
}

TEST(ExplorerPinTest, FaultyNestedSweepUnderPor) {
  ExpectPinned(PinConfig(FaultyPaperExampleScenario(Algorithm::kNestedSweep),
                         PromisedConsistency(Algorithm::kNestedSweep),
                         /*sleep_sets=*/true),
               Pins{4044, 0, ConsistencyLevel::kStrong, 11287, 5030, 13178,
                    4, true, std::nullopt,
                    {{{0, kNotPinned, 0},
                      {0, 4044, 8081},
                      {0, 4044, 1113},
                      {0, 2992, 862},
                      {0, 4095, 1112}}}});
}

}  // namespace
}  // namespace sweepmv
