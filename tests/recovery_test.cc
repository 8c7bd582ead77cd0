// Warehouse crash-recovery: durable checkpoint + update WAL, epoch-tagged
// query re-issue, and replay through the normal arrival path. The
// schedule-space certification lives in explorer_test.cc; these tests pin
// the mechanics — serializer faithfulness, checkpoint cadence, WAL replay
// instead of recompute, and stale-epoch answer filtering.

#include <gtest/gtest.h>

#include "core/warehouse.h"
#include "harness/scenario.h"
#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;
using testing_util::System;

// Serialize -> restore -> serialize must be the identity on the protocol
// state, for every algorithm, at an instant with real in-flight work
// (queries outstanding, updates queued).
TEST(RecoveryTest, CheckpointRoundTripsMidFlightForEveryAlgorithm) {
  for (Algorithm a : AllAlgorithmVariants()) {
    System sys(a, PaperView(), PaperBases(PaperView()));
    sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
    sys.ScheduleDelete(0, 2, IntTuple({7, 8}));
    sys.ScheduleDelete(0, 0, IntTuple({2, 3}));
    // Stop mid-protocol: updates are in flight or queued and (for the
    // query-driven algorithms) a sweep is mid-chain.
    sys.sim().Run(/*max_events=*/6);

    const std::string bytes = sys.warehouse().SerializeCheckpoint();
    EXPECT_FALSE(bytes.empty()) << AlgorithmName(a);
    sys.warehouse().RestoreFromCheckpoint(bytes);
    EXPECT_EQ(sys.warehouse().SerializeCheckpoint(), bytes)
        << AlgorithmName(a);

    // The restore was the identity, so the run finishes as if it never
    // happened.
    sys.Run();
    EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView())
        << AlgorithmName(a);
  }
}

TEST(RecoveryTest, CheckpointCadenceFollowsWalSize) {
  WarehouseConfig config;
  config.base.checkpoint_every = 2;
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()),
             LatencyModel::Fixed(1000), config);
  // Five updates, far enough apart that each is fully processed before
  // the next arrives.
  for (int i = 0; i < 5; ++i) {
    sys.ScheduleInsert(i * 20'000, 1, IntTuple({100 + i, 5}));
  }
  sys.Run();

  // Lazy initial checkpoint at the first arrival, then a cut each time
  // the WAL reaches 2 entries (after updates 2 and 4).
  EXPECT_EQ(sys.warehouse().checkpoints_taken(), 3);
  EXPECT_GT(sys.warehouse().checkpoint_bytes_max(), 0);
  EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView());
}

// Crash with all three recovery paths live at once: the checkpoint was
// cut mid-sweep (so it holds an in-flight query to re-issue under the new
// epoch), a later update sits in the WAL (so recovery replays instead of
// recomputing), and the dead incarnation's outstanding query is answered
// anyway (so the stale-epoch filter has something to discard).
TEST(RecoveryTest, CrashMidSweepRecoversByWalReplay) {
  WarehouseConfig config;
  config.base.checkpoint_every = 2;
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()),
             LatencyModel::Fixed(1000), config);
  // u1 and u2 arrive together at t=1000: the cadence-2 checkpoint cut at
  // the end of u2's arrival captures u1's sweep with its first query in
  // flight and u2 still queued.
  sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
  sys.ScheduleDelete(0, 2, IntTuple({7, 8}));
  // u3 arrives at t=6000 and stays in the WAL (size 1 < 2, no cut).
  sys.ScheduleDelete(5'000, 0, IntTuple({2, 3}));
  // Crash at t=6500: u2's sweep query is in flight (answer due 7000).
  sys.sim().ScheduleAt(6'500, [&sys]() {
    sys.warehouse().CrashAndRecover();
  });
  sys.Run();

  EXPECT_EQ(sys.warehouse().recoveries(), 1);
  EXPECT_EQ(sys.warehouse().epoch(), 1);
  // u3 was replayed from the WAL; u1 and u2 came back with the
  // checkpoint (restored mid-sweep, not re-accepted).
  EXPECT_EQ(sys.warehouse().wal_replayed(), 1);
  EXPECT_EQ(sys.warehouse().checkpoints_taken(), 2);
  // The checkpoint's in-flight query went out again under epoch 1.
  EXPECT_GE(sys.warehouse().queries_reissued(), 1);
  // The dead incarnation's query was answered anyway; the answer carries
  // epoch 0 and is discarded.
  EXPECT_GE(sys.warehouse().pre_epoch_answers_ignored(), 1);
  EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView());
}

TEST(RecoveryTest, EveryAlgorithmSurvivesAControlledCrash) {
  for (Algorithm a : AllAlgorithmVariants()) {
    WarehouseConfig config;
    config.base.checkpoint_every = 2;
    System sys(a, PaperView(), PaperBases(PaperView()),
               LatencyModel::Fixed(1000), config);
    sys.ScheduleInsert(0, 1, IntTuple({3, 5}));
    sys.ScheduleDelete(0, 2, IntTuple({7, 8}));
    sys.ScheduleDelete(0, 0, IntTuple({2, 3}));
    sys.sim().ScheduleAt(1500, [&sys]() {
      sys.warehouse().CrashAndRecover();
    });
    sys.Run();

    EXPECT_EQ(sys.warehouse().recoveries(), 1) << AlgorithmName(a);
    EXPECT_EQ(sys.warehouse().view(), sys.ExpectedView())
        << AlgorithmName(a);
  }
}

// A checkpoint records each audit log's length, not its entries, so the
// view copy log_installs keeps per install costs the checkpoint nothing.
// The run is BENCH_recovery.json's cadence-1 row: a checkpoint per update
// and a warehouse crash mid-run.
TEST(RecoveryTest, CheckpointSizeDoesNotDependOnTheInstallLog) {
  RunResult runs[2];
  for (bool log_installs : {true, false}) {
    ScenarioConfig config;
    config.algorithm = Algorithm::kSweep;
    config.chain.num_relations = 3;
    config.chain.initial_tuples = 12;
    config.chain.join_domain = 6;
    config.workload.total_txns = 40;
    config.workload.mean_interarrival = 4'000;
    config.latency = LatencyModel::Jittered(500, 1'000);
    config.fault_plan.enabled = true;
    config.fault_plan.reliability = true;
    config.fault_plan.checkpoint_every = 1;
    config.fault_plan.query_timeout = 30'000;
    config.fault_plan.warehouse_crashes.push_back({80'000, 100'000});
    config.warehouse.base.log_installs = log_installs;
    runs[log_installs ? 0 : 1] = RunScenario(config);
  }
  const RunResult& on = runs[0];
  const RunResult& off = runs[1];
  EXPECT_EQ(on.warehouse_recoveries, 1);
  EXPECT_GT(on.checkpoints_taken, 1);
  EXPECT_EQ(on.checkpoint_bytes_max, off.checkpoint_bytes_max);
  EXPECT_EQ(on.checkpoints_taken, off.checkpoints_taken);
  EXPECT_EQ(on.wal_updates_replayed, off.wal_updates_replayed);
  EXPECT_EQ(on.final_view, off.final_view);
  EXPECT_EQ(on.final_view, on.expected_view);
}

// Crashing without a durable store is a contract violation, not silent
// data loss.
TEST(RecoveryDeathTest, CrashWithoutDurableStoreIsRefused) {
  System sys(Algorithm::kSweep, PaperView(), PaperBases(PaperView()));
  EXPECT_DEATH(sys.warehouse().CrashAndRecover(), "durable store");
}

// Full-harness crash: the warehouse site actually goes down (network
// drops its traffic), the session layer retransmits across the outage,
// and recovery brings the view back to the correct final state.
TEST(RecoveryTest, HarnessWarehouseCrashHealsThroughSessions) {
  ScenarioConfig config;
  config.algorithm = Algorithm::kSweep;
  config.chain.num_relations = 3;
  config.workload.total_txns = 12;
  config.workload.mean_interarrival = 8'000;
  config.fault_plan.enabled = true;
  config.fault_plan.reliability = true;
  config.fault_plan.checkpoint_every = 2;
  config.fault_plan.query_timeout = 30'000;
  config.fault_plan.warehouse_crashes.push_back({40'000, 60'000});

  RunResult result = RunScenario(config);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.warehouse_recoveries, 1);
  EXPECT_GT(result.checkpoints_taken, 0);
  EXPECT_TRUE(result.consistency.final_state_correct)
      << result.consistency.detail;
  EXPECT_EQ(result.final_view, result.expected_view);
}

}  // namespace
}  // namespace sweepmv
