// A DataSource co-hosting several chain relations (Section 2's general
// form), and the harness topologies built from such sites.

#include "source/data_source.h"

#include <gtest/gtest.h>

#include "consistency/checker.h"
#include "harness/scenario.h"
#include "relational/partial_delta.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;

class SinkSite : public Site {
 public:
  void OnMessage(int from, Message msg) override {
    (void)from;
    messages.push_back(std::move(msg));
  }
  std::vector<Message> messages;
};

struct Fixture {
  Fixture()
      : view(PaperView()),
        network(&sim, LatencyModel::Fixed(10), 1),
        source(/*site_id=*/1, /*first_relation=*/0,
               [this] {
                 std::vector<Relation> bases = PaperBases(view);
                 bases.pop_back();  // host R1 and R2, not R3
                 return bases;
               }(),
               &view, &network, /*warehouse_site=*/0, &ids) {
    network.RegisterSite(0, &sink);
    network.RegisterSite(1, &source);
  }

  ViewDef view;
  Simulator sim;
  Network network;
  UpdateIdGenerator ids;
  SinkSite sink;
  DataSource source;
};

TEST(MultiSourceTest, HostsSeveralRelations) {
  Fixture f;
  EXPECT_EQ(f.source.hosted_relations(), (std::vector<int>{0, 1}));
  EXPECT_EQ(f.source.relation(0).CountOf(IntTuple({1, 3})), 1);
  EXPECT_EQ(f.source.relation(1).CountOf(IntTuple({3, 7})), 1);
}

TEST(MultiSourceTest, TransactionsPerRelationShareTheChannel) {
  Fixture f;
  f.source.ApplyTxn(0, {UpdateOp::Insert(IntTuple({9, 3}))});
  f.source.ApplyTxn(1, {UpdateOp::Insert(IntTuple({3, 5}))});
  f.sim.Run();

  ASSERT_EQ(f.sink.messages.size(), 2u);
  const auto* m0 = std::get_if<UpdateMessage>(&f.sink.messages[0]);
  const auto* m1 = std::get_if<UpdateMessage>(&f.sink.messages[1]);
  ASSERT_NE(m0, nullptr);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m0->update.relation, 0);
  EXPECT_EQ(m1->update.relation, 1);
  // Per-relation ground truth logged separately.
  EXPECT_EQ(f.source.log(0).updates().size(), 1u);
  EXPECT_EQ(f.source.log(1).updates().size(), 1u);
}

TEST(MultiSourceTest, AnswersQueriesForEachHostedRelation) {
  Fixture f;
  PartialDelta pd;
  pd.lo = 1;
  pd.hi = 1;
  pd.rel = Relation(f.view.rel_schema(1));
  pd.rel.Add(IntTuple({3, 5}), 1);
  // Query relation 0 (hosted here) to extend left.
  f.network.Send(0, 1, QueryRequest{42, 0, /*extend_left=*/true, pd});
  f.sim.Run();

  const auto* ans = std::get_if<QueryAnswer>(&f.sink.messages[0]);
  ASSERT_NE(ans, nullptr);
  EXPECT_EQ(ans->partial.lo, 0);
  EXPECT_TRUE(ans->partial.rel.Contains(IntTuple({1, 3, 3, 5})));
  EXPECT_EQ(f.source.queries_answered(), 1);
}

TEST(MultiSourceTest, SnapshotAnswersEveryHostedRelation) {
  Fixture f;
  f.network.Send(0, 1, SnapshotRequest{7});
  f.sim.Run();
  ASSERT_EQ(f.sink.messages.size(), 2u);
  std::set<int> rels;
  for (const Message& m : f.sink.messages) {
    const auto* snap = std::get_if<SnapshotAnswer>(&m);
    ASSERT_NE(snap, nullptr);
    rels.insert(snap->relation);
  }
  EXPECT_EQ(rels, (std::set<int>{0, 1}));
}

// ---- topology-level properties via the harness ----

class CohostTopology
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(CohostTopology, ConsistencyPromiseHoldsWithCohostedRelations) {
  const auto& [algorithm, per_site] = GetParam();
  ScenarioConfig config;
  config.algorithm = algorithm;
  config.relations_per_site = per_site;
  config.chain.num_relations = 5;
  config.chain.initial_tuples = 10;
  config.chain.join_domain = 4;
  config.workload.total_txns = 20;
  config.workload.mean_interarrival = 1500;
  config.latency = LatencyModel::Jittered(800, 600);

  RunResult result = RunScenario(config);
  EXPECT_EQ(result.final_view, result.expected_view)
      << result.consistency.detail;
  EXPECT_GE(static_cast<int>(result.consistency.level),
            static_cast<int>(PromisedConsistency(algorithm)))
      << AlgorithmName(algorithm) << " per_site=" << per_site << " : "
      << result.consistency.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CohostTopology,
    ::testing::Combine(::testing::Values(Algorithm::kSweep,
                                         Algorithm::kNestedSweep,
                                         Algorithm::kStrobe,
                                         Algorithm::kCStrobe,
                                         Algorithm::kPipelinedSweep,
                                         Algorithm::kRecompute),
                       ::testing::Values(2, 3, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, int>>& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_per" + std::to_string(std::get<1>(info.param));
    });

TEST(MultiSourceTest, CohostingReducesDistinctSitesNotMessages) {
  auto run = [](int per_site) {
    ScenarioConfig config;
    config.algorithm = Algorithm::kSweep;
    config.relations_per_site = per_site;
    config.chain.num_relations = 4;
    config.chain.initial_tuples = 8;
    config.workload.total_txns = 10;
    config.workload.mean_interarrival = 20000;
    config.latency = LatencyModel::Fixed(500);
    return RunScenario(config);
  };
  RunResult spread = run(1);
  RunResult packed = run(4);
  // SWEEP still sends one query per *relation* regardless of hosting.
  EXPECT_DOUBLE_EQ(spread.maintenance_msgs_per_update,
                   packed.maintenance_msgs_per_update);
  EXPECT_EQ(spread.final_view, packed.final_view);
}

}  // namespace
}  // namespace sweepmv
