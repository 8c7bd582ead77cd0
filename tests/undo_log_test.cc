// Undo-log backtracking (src/common/undo.h, src/verify/).
//
// The explorer's fast path rewinds a decision point by popping undo
// entries instead of restoring a full snapshot. That is only sound if a
// rollback reproduces the watermark state byte-for-byte — pinned here
// against two independent oracles, CanonicalDebugDump equality and
// SaveState/RestoreState — for every maintenance algorithm, crash
// recovery included. The fingerprint's own tests are in
// fingerprint_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/undo.h"
#include "verify/controlled_run.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

// --- UndoLog contract, in isolation ---------------------------------------

TEST(UndoLogTest, ValueCaptureRestoresWatermarkValue) {
  UndoLog undo;
  int x = 1;
  UndoLog::Mark mark = undo.MarkPoint();
  undo.CaptureValue(&x);
  x = 2;
  // Second touch in the same era must not overwrite the watermark value.
  undo.CaptureValue(&x);
  x = 3;
  undo.RollbackTo(mark);
  EXPECT_EQ(x, 1);
}

TEST(UndoLogTest, FirstTouchDedupIsPerEra) {
  UndoLog undo;
  int x = 1;
  UndoLog::Mark outer = undo.MarkPoint();
  undo.CaptureValue(&x);
  x = 2;
  UndoLog::Mark inner = undo.MarkPoint();  // new era: next touch records
  undo.CaptureValue(&x);
  x = 3;
  undo.RollbackTo(inner);
  EXPECT_EQ(x, 2);
  undo.RollbackTo(outer);
  EXPECT_EQ(x, 1);
}

TEST(UndoLogTest, TailCaptureTruncatesAppendOnlyGrowth) {
  UndoLog undo;
  std::vector<int> log = {1, 2};
  UndoLog::Mark mark = undo.MarkPoint();
  undo.CaptureTail(&log);
  log.push_back(3);
  log.push_back(4);
  undo.RollbackTo(mark);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(UndoLogTest, ValueAndTailEntriesComposeAcrossEras) {
  // Era 1 appends under a tail capture; era 2 rewrites the container
  // under a value capture. Reverse-order application must first restore
  // the full era-2 value, then cut it back to era 1's length.
  UndoLog undo;
  std::vector<int> log = {1};
  UndoLog::Mark mark = undo.MarkPoint();
  undo.CaptureTail(&log);
  log.push_back(2);
  undo.MarkPoint();
  undo.CaptureValue(&log);
  log = {9, 9, 9, 9};
  undo.RollbackTo(mark);
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(UndoLogTest, DiscardDropsEntriesWithoutApplyingThem) {
  UndoLog undo;
  int x = 1;
  UndoLog::Mark mark = undo.MarkPoint();
  undo.CaptureValue(&x);
  x = 2;
  undo.DiscardTo(mark);
  EXPECT_EQ(x, 2);
  EXPECT_EQ(undo.size(), 0u);
}

// --- Round trip against the system, per algorithm -------------------------

// Marks after `prefix` controlled steps, runs `detour` more, rolls back,
// and checks the rewound system against both oracles: the dump taken at
// the watermark, and a full snapshot restored onto a second continuation.
void ExpectUndoRoundTrip(const ControlledScenario& scenario, int64_t prefix,
                         int64_t detour, const std::string& what) {
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  UndoLog undo;
  system.AttachUndo(&undo);
  ASSERT_EQ(system.Run(prefix), prefix) << what;

  UndoLog::Mark mark = undo.MarkPoint();
  const std::string at_mark = system.CanonicalDebugDump();
  ControlledSystem::SavedState snap = system.SaveState();

  // The default schedule may drain before the full detour; any forward
  // progress at all is enough to make the rollback meaningful.
  ASSERT_GT(system.Run(detour), 0) << what;
  ASSERT_NE(system.CanonicalDebugDump(), at_mark) << what;

  undo.RollbackTo(mark);
  EXPECT_EQ(system.CanonicalDebugDump(), at_mark) << what << " (rollback)";

  // The rolled-back system and a snapshot-restored one must drain to the
  // same terminal — the two backtracking engines are interchangeable.
  const int64_t budget = 100'000;
  system.Run(budget);
  ASSERT_TRUE(system.Drained()) << what;
  const std::string terminal = system.CanonicalDebugDump();
  system.AttachUndo(nullptr);
  system.RestoreState(snap);
  system.Run(budget);
  ASSERT_TRUE(system.Drained()) << what;
  EXPECT_EQ(system.CanonicalDebugDump(), terminal) << what << " (oracle)";
}

TEST(UndoRoundTripTest, EveryAlgorithmSurvivesRollback) {
  for (Algorithm algo : AllAlgorithmVariants()) {
    ExpectUndoRoundTrip(PaperExampleScenario(algo), /*prefix=*/5,
                        /*detour=*/7, AlgorithmName(algo));
  }
}

TEST(UndoRoundTripTest, RollbackSpansEveryPrefixDepth) {
  // Slide the watermark across the whole default schedule of the sweep
  // scenario so every entry point's hooks get exercised on both sides.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  for (int64_t prefix : {0, 1, 3, 8, 13}) {
    ExpectUndoRoundTrip(scenario, prefix, /*detour=*/5,
                        "prefix=" + std::to_string(prefix));
  }
}

TEST(UndoRoundTripTest, CrashAndRecoveryRollBackCleanly) {
  // The crash path value-captures the append-only durables it rewrites
  // (WAL, checkpoint, epoch) — the mixed-era composition the capture
  // discipline in common/undo.h argues is sound. Pin it across
  // watermarks straddling the crash/recovery epoch boundary.
  ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  for (int64_t prefix : {2, 4, 6, 10}) {
    ExpectUndoRoundTrip(scenario, prefix, /*detour=*/6,
                        "faulty prefix=" + std::to_string(prefix));
  }
  // The default schedule really does contain the crash: a straight drain
  // completes at least one recovery.
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  system.Run(100'000);
  ASSERT_TRUE(system.Drained());
  EXPECT_GE(system.warehouse().recoveries(), 1);
}

// --- Engine invariance ----------------------------------------------------

void ExpectSameVerdicts(const ExploreResult& a, const ExploreResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.schedules, b.schedules) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.worst, b.worst) << what;
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned) << what;
  EXPECT_EQ(a.decision_points, b.decision_points) << what;
  EXPECT_EQ(a.max_ready, b.max_ready) << what;
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << what;
  if (a.counterexample.has_value()) {
    EXPECT_EQ(a.counterexample->choices, b.counterexample->choices) << what;
  }
}

ExplorerConfig InvarianceConfig(ControlledScenario scenario,
                                ConsistencyLevel required) {
  ExplorerConfig config{std::move(scenario), required,
                        /*sleep_sets=*/true,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  return config;
}

TEST(EngineInvarianceTest, UndoAndAnchorCadenceNeverChangeTheAnswer) {
  for (bool sleep_sets : {true, false}) {
    ExplorerConfig snapshot =
        InvarianceConfig(PaperExampleScenario(Algorithm::kSweep),
                         ConsistencyLevel::kComplete);
    snapshot.sleep_sets = sleep_sets;
    snapshot.use_undo = false;
    ExploreResult baseline = ExploreExhaustive(snapshot);
    ASSERT_TRUE(baseline.exhausted);
    for (int cadence : {0, 1, 8, 64}) {
      ExplorerConfig undo = snapshot;
      undo.use_undo = true;
      undo.snapshot_anchor_every = cadence;
      const std::string what = std::string(sleep_sets ? "POR" : "naive") +
                               " cadence=" + std::to_string(cadence);
      ExploreResult result = ExploreExhaustive(undo);
      ExpectSameVerdicts(baseline, result, what);
      // The undo log must actually carry the backtracking; K=1 anchors
      // every branch, so it alone never rolls back.
      if (cadence != 1) {
        EXPECT_GT(result.undo_rollbacks, 0) << what;
      }
    }
  }
}

TEST(EngineInvarianceTest, DedupAndThreadCountNeverChangeTheAnswer) {
  // The violation hunt (ECA without compensation) and the clean
  // certification (SWEEP) both produce identical counts, verdicts and
  // counterexample for every engine: dedup on/off x 1/2/4/8 threads.
  struct Case {
    ControlledScenario scenario;
    ConsistencyLevel required;
    bool sleep_sets;
    const char* name;
  };
  Case cases[] = {
      {EcaAnomalyScenario(false), ConsistencyLevel::kConvergent, true,
       "eca"},
      {PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
       true, "sweep"},
      // Naive enumeration is where the visited table actually fires (POR
      // already removes the syntactic diamonds of a space this small);
      // the merged cached summaries must still reproduce the dedup-off
      // totals exactly.
      {PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
       false, "sweep-naive"},
  };
  for (const Case& c : cases) {
    ExplorerConfig base = InvarianceConfig(c.scenario, c.required);
    base.sleep_sets = c.sleep_sets;
    ExploreResult baseline = ExploreExhaustive(base);
    ASSERT_TRUE(baseline.exhausted) << c.name;
    for (int threads : {1, 2, 4, 8}) {
      ExplorerConfig dedup = base;
      dedup.dedup_states = true;
      dedup.threads = threads;
      ExploreResult result = ExploreExhaustive(dedup);
      ExpectSameVerdicts(baseline, result,
                         std::string(c.name) +
                             " dedup threads=" + std::to_string(threads));
      if (!c.sleep_sets && threads == 1) {
        EXPECT_GT(result.dedup_hits, 0) << c.name;
      }
    }
  }
}

TEST(EngineInvarianceTest, TinyFrontierFallsBackToSequential) {
  // One transaction, one relation: the frontier split cannot fan out, so
  // a parallel request degrades to the sequential engine and says so.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  scenario.txns.resize(1);
  ExplorerConfig config =
      InvarianceConfig(scenario, ConsistencyLevel::kComplete);
  ExploreResult sequential = ExploreExhaustive(config);
  config.threads = 8;
  ExploreResult parallel = ExploreExhaustive(config);
  EXPECT_TRUE(parallel.parallel_fallback);
  ExpectSameVerdicts(sequential, parallel, "fallback");
  EXPECT_FALSE(sequential.parallel_fallback);
}

}  // namespace
}  // namespace sweepmv
