// Contract enforcement: documented preconditions abort via SWEEP_CHECK
// rather than corrupting state silently. Death tests pin the contracts.

#include <gtest/gtest.h>

#include "common/state.h"
#include "consistency/checker.h"
#include "core/checkpoint.h"
#include "harness/scenario.h"
#include "relational/partial_delta.h"
#include "shard/sharded_scenario.h"
#include "test_util.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;

// GTEST_FLAG_SET only exists from googletest 1.12; assign through the
// older GTEST_FLAG macro so the file builds against 1.11 as well.
void UseThreadsafeDeathTests() {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
}

TEST(ContractDeathTest, DeletingAbsentTupleAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(source.ApplyDelete(IntTuple({999, 999})),
               "deleted a tuple that was not present");
}

TEST(ContractDeathTest, TupleSchemaMismatchAborts) {
  UseThreadsafeDeathTests();
  Relation r(Schema::AllInts({"A", "B"}));
  EXPECT_DEATH(r.Add(IntTuple({1, 2, 3}), 1),
               "does not match relation schema");
}

TEST(ContractDeathTest, ExtendPastChainEndAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Relation delta(view.rel_schema(0));
  delta.Add(IntTuple({1, 3}), 1);
  PartialDelta pd = PartialDelta::ForRelation(view, 0, delta);
  Relation other(view.rel_schema(0));
  EXPECT_DEATH(ExtendLeft(view, other, pd),
               "no relation to the left");
}

TEST(ContractDeathTest, DuplicateSiteRegistrationAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);
  EXPECT_DEATH(net.RegisterSite(1, &source), "already registered");
}

TEST(ContractDeathTest, SendingToUnknownSiteAborts) {
  UseThreadsafeDeathTests();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  EXPECT_DEATH(net.Send(0, 42, SnapshotRequest{1}),
               "unknown destination site");
}

TEST(ContractDeathTest, MisroutedQueryAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  const std::vector<Relation> bases = PaperBases(view);
  PartialDelta pd;
  pd.lo = 1;
  pd.hi = 1;
  pd.rel = Relation(view.rel_schema(1));
  pd.rel.Add(IntTuple({3, 5}), 1);
  // Site 1 hosts R1 alone, then R1 and R2 together; never R3.
  for (int hosted : {1, 2}) {
    Simulator sim;
    Network net(&sim, LatencyModel::Fixed(10), 1);
    UpdateIdGenerator ids;
    DataSource source(1, 0,
                      std::vector<Relation>(bases.begin(),
                                            bases.begin() + hosted),
                      &view, &net, 0, &ids);
    net.RegisterSite(1, &source);
    // Target relation 2 does not live at site 1.
    net.Send(0, 1, QueryRequest{5, 2, true, pd});
    EXPECT_DEATH(sim.Run(), "wrong source") << hosted << " hosted";
  }
}

TEST(ContractDeathTest, EcaQueryToPartOfTheChainAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  std::vector<Relation> bases = PaperBases(view);
  bases.pop_back();  // site 1 hosts R1 and R2, not R3
  DataSource source(1, 0, std::move(bases), &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EcaTerm term;
  term.sign = 1;
  term.fixed.resize(3);
  net.Send(0, 1, EcaQueryRequest{5, {term}});
  EXPECT_DEATH(sim.Run(), "whole chain");
}

// A source crash plan without FaultPlan::enabled would get neither
// sessions nor a query timeout, so a query lost with the crashed source
// would wedge the run. Both runners reject the plan before running it.
FaultPlan::CrashEvent MidRunSourceCrash() {
  return {/*relation=*/1, /*crash_at=*/10'000, /*restart_at=*/25'000};
}

TEST(ContractDeathTest, SourceCrashWithoutFaultPlanAborts) {
  UseThreadsafeDeathTests();
  ScenarioConfig config;
  config.fault_plan.crashes = {MidRunSourceCrash()};
  EXPECT_DEATH(RunScenario(config), "FaultPlan::enabled");
}

TEST(ContractDeathTest, ShardedSourceCrashWithoutFaultPlanAborts) {
  UseThreadsafeDeathTests();
  ShardedScenarioConfig config;
  config.base.fault_plan.crashes = {MidRunSourceCrash()};
  EXPECT_DEATH(RunShardedScenario(config), "FaultPlan::enabled");
}

// A checkpoint holds each audit log's length, and restoring truncates the
// live log to it. A fresh warehouse's logs are shorter than another run's
// recorded lengths: restoring that run's checkpoint aborts, naming the
// first short log, instead of adopting a history that never happened.
TEST(ContractDeathTest, RestoringAnotherRunsCheckpointAborts) {
  UseThreadsafeDeathTests();
  testing_util::System finished(Algorithm::kSweep, PaperView(),
                                PaperBases(PaperView()));
  finished.ScheduleInsert(0, 1, IntTuple({3, 5}));
  finished.ScheduleDelete(0, 2, IntTuple({7, 8}));
  finished.Run();
  const std::string bytes = finished.warehouse().SerializeCheckpoint();

  testing_util::System fresh(Algorithm::kSweep, PaperView(),
                             PaperBases(PaperView()));
  EXPECT_DEATH(fresh.warehouse().RestoreFromCheckpoint(bytes),
               "checkpoint records 2 entries of the log arrival_log_, but "
               "the live log holds 0");
}

// A pending request is checkpointed as its alternative's index, then the
// alternative. Past the three request kinds there is no request to decode
// into: decoding aborts, naming the checkpoint, instead of guessing one.
TEST(ContractDeathTest, DecodingAnUnknownRequestKindAborts) {
  UseThreadsafeDeathTests();
  const std::string bytes(1, '\x03');
  CheckpointReader reader(bytes);
  StateDecoder<CheckpointReader> decoder(reader);
  Request request;
  EXPECT_DEATH(decoder.Decode(request),
               "checkpoint records alternative 3 of a variant of 3");
}

// A warehouse that installs a view delta under an update id no source
// logged.
class UnloggedInstallWarehouse : public Warehouse {
 public:
  UnloggedInstallWarehouse(int site_id, ViewDef view_def, Network* network,
                           std::vector<int> source_sites)
      : Warehouse(site_id, std::move(view_def), network,
                  std::move(source_sites), Options{}) {}
  bool Busy() const override { return false; }
  std::string name() const override { return "UnloggedInstall"; }
  void InstallUnlogged(Relation delta) {
    InstallViewDelta(std::move(delta), {999});
  }

 protected:
  void HandleUpdateArrival() override {}
};

// The checker reports a wrong final view before it looks at the installs;
// only behind a right final view does an install of an update no source
// logged abort.
ConsistencyReport CheckUnloggedInstall(bool right_final_view) {
  ViewDef view = PaperView();
  std::vector<Relation> bases = PaperBases(view);
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(100), 1);
  UpdateIdGenerator ids;
  DataSource s0(1, 0, bases[0], &view, &net, 0, &ids);
  DataSource s1(2, 1, bases[1], &view, &net, 0, &ids);
  DataSource s2(3, 2, bases[2], &view, &net, 0, &ids);
  net.RegisterSite(1, &s0);
  net.RegisterSite(2, &s1);
  net.RegisterSite(3, &s2);
  UnloggedInstallWarehouse wh(0, view, &net, {1, 2, 3});
  net.RegisterSite(0, &wh);
  std::vector<const Relation*> rels{&bases[0], &bases[1], &bases[2]};
  wh.InitializeView(view.EvaluateFull(rels));
  Relation delta(view.view_schema());
  if (!right_final_view) delta.Add(IntTuple({777, 777}), 1);
  wh.InstallUnlogged(std::move(delta));
  return CheckConsistency(view, {&s0.log(), &s1.log(), &s2.log()}, wh);
}

TEST(ContractDeathTest, UnloggedInstallAbortsOnlyBehindARightFinalView) {
  UseThreadsafeDeathTests();
  const ConsistencyReport wrong = CheckUnloggedInstall(false);
  EXPECT_EQ(wrong.level, ConsistencyLevel::kInconsistent);
  EXPECT_FALSE(wrong.final_state_correct);
  EXPECT_EQ(wrong.detail,
            "final view does not match the replayed final view");
  EXPECT_DEATH(CheckUnloggedInstall(true), "unknown update id");
}

TEST(ContractDeathTest, SchedulingInThePastAborts) {
  UseThreadsafeDeathTests();
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(50, [] {}), "cannot schedule in the past");
}

// ExploreExhaustive rejects an engine combination it cannot run rather
// than quietly running a different one.
ExplorerConfig PaperExampleExploration() {
  ExplorerConfig config{PaperExampleScenario(Algorithm::kSweep),
                        ConsistencyLevel::kComplete};
  return config;
}

TEST(ContractDeathTest, ExploringWithNoThreadsAborts) {
  UseThreadsafeDeathTests();
  ExplorerConfig config = PaperExampleExploration();
  config.threads = 0;
  EXPECT_DEATH(ExploreExhaustive(config), "threads must be positive");
}

TEST(ContractDeathTest, ParallelStatelessExplorationAborts) {
  UseThreadsafeDeathTests();
  ExplorerConfig config = PaperExampleExploration();
  config.share_prefixes = false;
  config.threads = 2;
  EXPECT_DEATH(ExploreExhaustive(config),
               "parallel exploration requires prefix sharing");
}

TEST(ContractDeathTest, StatelessStateDedupAborts) {
  UseThreadsafeDeathTests();
  ExplorerConfig config = PaperExampleExploration();
  config.share_prefixes = false;
  config.dedup_states = true;
  EXPECT_DEATH(ExploreExhaustive(config),
               "state dedup requires the prefix-sharing engine");
}

}  // namespace
}  // namespace sweepmv
