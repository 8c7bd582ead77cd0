// Randomized soak: many seeds × randomized configurations per algorithm,
// every run checked against its Table 1 promise by full replay. This is
// the widest net in the suite; configurations are kept small enough that
// the whole sweep stays fast.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/scenario.h"

namespace sweepmv {
namespace {

class Soak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Soak, RandomConfigurationsMeetPromises) {
  uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);

  for (Algorithm a : AllAlgorithmVariants()) {
    ScenarioConfig config;
    config.algorithm = a;
    config.chain.num_relations = static_cast<int>(rng.Uniform(2, 5));
    config.chain.initial_tuples = static_cast<int>(rng.Uniform(4, 16));
    config.chain.join_domain = rng.Uniform(2, 6);
    config.chain.seed = rng.Next();
    config.chain.narrow_projection = rng.Bernoulli(0.3) &&
                                     a != Algorithm::kStrobe &&
                                     a != Algorithm::kCStrobe;
    config.workload.total_txns = static_cast<int>(rng.Uniform(5, 30));
    config.workload.insert_fraction = 0.4 + rng.NextDouble() * 0.6;
    config.workload.max_ops_per_txn =
        static_cast<int>(rng.Uniform(1, 3));
    config.workload.mean_interarrival = 400.0 + rng.NextDouble() * 5000;
    config.workload.relation_skew = rng.Bernoulli(0.5) ? 0.7 : 0.0;
    config.workload.seed = rng.Next();
    config.latency = LatencyModel::Jittered(
        rng.Uniform(100, 2000), rng.Uniform(0, 1500));
    config.network_seed = rng.Next();
    config.relations_per_site =
        rng.Bernoulli(0.3) ? static_cast<int>(rng.Uniform(2, 3)) : 1;
    config.warehouse.nested_max_recursion_depth =
        static_cast<int>(rng.Uniform(1, 32));
    config.warehouse.pipeline_max_inflight =
        static_cast<int>(rng.Uniform(1, 16));

    RunResult r = RunScenario(config);
    ASSERT_EQ(r.final_view, r.expected_view)
        << AlgorithmName(a) << " seed=" << seed
        << " n=" << config.chain.num_relations << " : "
        << r.consistency.detail;
    ASSERT_GE(static_cast<int>(r.consistency.level),
              static_cast<int>(PromisedConsistency(a)))
        << AlgorithmName(a) << " seed=" << seed
        << " n=" << config.chain.num_relations << " : "
        << r.consistency.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Soak,
                         ::testing::Range(uint64_t{1}, uint64_t{13}),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "s" + std::to_string(i.param);
                         });

TEST(CrashSoak, EveryAlgorithmSurvivesAWarehouseCrashUnchanged) {
  // Crash-recovery must be invisible in the result: the same workload run
  // with mid-run warehouse crash/restarts ends in a final view
  // byte-identical to the crash-free run's, for every algorithm. The
  // second input is long enough that each recovery rebuilds the view from
  // a base image plus several delta records, and that the base is
  // rewritten before the second crash.
  struct Input {
    int txns;
    std::vector<FaultPlan::WarehouseCrashEvent> crashes;
  };
  const Input inputs[] = {
      {16, {{35'000, 55'000}}},
      {120, {{230'000, 250'000}, {500'000, 520'000}}},
  };
  for (const Input& input : inputs) {
    for (Algorithm a : AllAlgorithmVariants()) {
      ScenarioConfig config;
      config.algorithm = a;
      config.chain.num_relations = 3;
      config.chain.initial_tuples = 10;
      config.chain.join_domain = 4;
      config.workload.total_txns = input.txns;
      config.workload.mean_interarrival = 6'000.0;

      RunResult clean = RunScenario(config);
      ASSERT_TRUE(clean.completed) << AlgorithmName(a);
      ASSERT_EQ(clean.final_view, clean.expected_view) << AlgorithmName(a);

      ScenarioConfig crashed = config;
      crashed.fault_plan.enabled = true;
      crashed.fault_plan.reliability = true;
      crashed.fault_plan.checkpoint_every = 2;
      crashed.fault_plan.query_timeout = 30'000;
      crashed.fault_plan.warehouse_crashes = input.crashes;
      RunResult result = RunScenario(crashed);

      const std::string what =
          std::string(AlgorithmName(a)) + " txns=" + std::to_string(input.txns);
      EXPECT_TRUE(result.completed) << what;
      EXPECT_EQ(result.warehouse_recoveries,
                static_cast<int64_t>(input.crashes.size()))
          << what;
      EXPECT_TRUE(result.consistency.final_state_correct)
          << what << ": " << result.consistency.detail;
      EXPECT_EQ(result.final_view, clean.final_view) << what;
    }
  }
}

}  // namespace
}  // namespace sweepmv
