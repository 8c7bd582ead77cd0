// Index/scan equivalence property test (ISSUE 2 acceptance criterion).
//
// The storage engine must never change *what* a run computes, only how
// fast sources answer queries. For every query-sending algorithm, the
// same scenario executed with maintained indexes on vs. off must yield
// byte-identical view contents, identical consistency-checker verdicts,
// and identical message traffic — including under a FaultPlan with a
// mid-run source crash/restart, which exercises the index-rebuild
// recovery path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>

#include "harness/chaos.h"
#include "harness/scenario.h"

namespace sweepmv {
namespace {

ScenarioConfig BaseConfig(Algorithm algorithm, uint64_t seed) {
  ScenarioConfig config;
  config.algorithm = algorithm;
  config.chain.num_relations = 3;
  config.chain.initial_tuples = 16;
  config.chain.join_domain = 5;
  config.chain.seed = seed;
  config.workload.total_txns = 30;
  config.workload.mean_interarrival = 2'500.0;
  config.workload.seed = seed + 1;
  config.network_seed = seed + 2;
  return config;
}

void ExpectEquivalent(const RunResult& indexed, const RunResult& scan) {
  EXPECT_EQ(indexed.completed, scan.completed);
  // Byte-identical view contents, both against each other and against the
  // replayed ground truth.
  EXPECT_EQ(indexed.final_view, scan.final_view);
  EXPECT_EQ(indexed.final_view.ToDisplayString(),
            scan.final_view.ToDisplayString());
  EXPECT_EQ(indexed.expected_view, scan.expected_view);
  // Identical consistency-checker verdicts.
  EXPECT_EQ(indexed.consistency.level, scan.consistency.level);
  EXPECT_EQ(indexed.consistency.final_state_correct,
            scan.consistency.final_state_correct);
  EXPECT_EQ(indexed.consistency.installs, scan.consistency.installs);
  // Identical protocol behaviour: same messages, same installs, same
  // virtual finish time — indexing is invisible to the simulation.
  EXPECT_EQ(indexed.net.TotalMessages(), scan.net.TotalMessages());
  EXPECT_EQ(indexed.net.TotalPayload(), scan.net.TotalPayload());
  EXPECT_EQ(indexed.installs, scan.installs);
  EXPECT_EQ(indexed.finish_time, scan.finish_time);
}

class IndexEquivalence
    : public ::testing::TestWithParam<std::tuple<Algorithm, uint64_t>> {};

TEST_P(IndexEquivalence, PristineRunsMatch) {
  auto [algorithm, seed] = GetParam();
  ScenarioConfig config = BaseConfig(algorithm, seed);

  config.use_indexes = true;
  RunResult indexed = RunScenario(config);
  config.use_indexes = false;
  RunResult scan = RunScenario(config);

  ExpectEquivalent(indexed, scan);

  // The indexed run really used the index: probes happened, no chain
  // query fell back, and each interior source maintained its key sets.
  EXPECT_GT(indexed.storage.index_probes, 0);
  EXPECT_EQ(indexed.storage.scan_fallbacks, 0);
  EXPECT_GT(indexed.storage.indexes_maintained, 0);
  EXPECT_EQ(scan.storage.index_probes, 0);
  EXPECT_GT(scan.storage.scan_fallbacks, 0);
}

// Crash/restart equivalence runs only on the algorithms the chaos suite
// already proves complete under crash schedules (tests/chaos_test.cc).
class IndexEquivalenceUnderFaults
    : public ::testing::TestWithParam<std::tuple<Algorithm, uint64_t>> {};

TEST_P(IndexEquivalenceUnderFaults, CrashRestartRunsMatch) {
  auto [algorithm, seed] = GetParam();
  ScenarioConfig config = BaseConfig(algorithm, seed);

  // A hostile-but-recoverable plan: faulty links under the session layer
  // plus a mid-run source crash/restart, which wipes and rebuilds the
  // victim's indexes while queries are being re-issued.
  ChaosSpec spec;
  spec.seed = seed;
  spec.drop_prob = 0.05;
  spec.dup_prob = 0.03;
  spec.num_partitions = 0;
  spec.num_crashes = 1;
  spec.crash_len = 10'000;
  spec.num_relations = config.chain.num_relations;
  spec.horizon =
      static_cast<SimTime>(config.workload.total_txns *
                           config.workload.mean_interarrival);
  spec.query_timeout = 40'000;
  spec.query_retry_limit = 12;
  config.fault_plan = MakeChaosPlan(spec);
  config.latency = LatencyModel::Jittered(300, 900);

  config.use_indexes = true;
  RunResult indexed = RunScenario(config);
  config.use_indexes = false;
  RunResult scan = RunScenario(config);

  ExpectEquivalent(indexed, scan);
  EXPECT_TRUE(indexed.completed);
  EXPECT_GT(indexed.updates_replayed, 0);  // the crash really happened
  // The restarted source rebuilt its indexes (initial builds + recovery).
  EXPECT_GT(indexed.storage.index_builds,
            indexed.storage.indexes_maintained);
  EXPECT_EQ(indexed.storage.scan_fallbacks, 0);
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, uint64_t>>& info) {
  std::string name = AlgorithmName(std::get<0>(info.param));
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) {
                              return !std::isalnum(
                                  static_cast<unsigned char>(c));
                            }),
             name.end());
  return name + "_s" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllQueryingAlgorithms, IndexEquivalence,
    ::testing::Combine(
        ::testing::Values(Algorithm::kSweep, Algorithm::kNestedSweep,
                          Algorithm::kParallelSweep,
                          Algorithm::kPipelinedSweep, Algorithm::kStrobe,
                          Algorithm::kCStrobe),
        ::testing::Values(11u, 29u)),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    CrashHardenedAlgorithms, IndexEquivalenceUnderFaults,
    ::testing::Combine(
        ::testing::Values(Algorithm::kSweep, Algorithm::kNestedSweep),
        ::testing::Values(11u, 29u)),
    ParamName);

// Co-hosted relations (a DataSource hosting several) go through the same
// indexed path; equivalence must hold there too.
TEST(IndexEquivalenceTopology, MultiRelationSourcesMatch) {
  ScenarioConfig config = BaseConfig(Algorithm::kSweep, 5);
  config.chain.num_relations = 4;
  config.relations_per_site = 2;

  config.use_indexes = true;
  RunResult indexed = RunScenario(config);
  config.use_indexes = false;
  RunResult scan = RunScenario(config);

  ExpectEquivalent(indexed, scan);
  EXPECT_GT(indexed.storage.index_probes, 0);
  EXPECT_EQ(indexed.storage.scan_fallbacks, 0);
}

}  // namespace
}  // namespace sweepmv
