// Golden pins for the state every stateful class declares: checkpoint
// bytes and explorer counts that no refactoring of the state mechanisms
// may change.
//
//   * Checkpoints: seeded random walks over the worked example, one
//     SerializeCheckpoint() after every step, folded into an FNV-1a
//     digest and a total length per algorithm. Mid-run checkpoints hold
//     every in-flight struct (active sweeps, frames, tasks, pending
//     queries, action lists), so the pins cover every field of every
//     nested state struct, in codec order.
//   * Checkpoint round trip: the same walks, each step's warehouse
//     restored from its own checkpoint, with the system's exact debug
//     dump unchanged. Unlike the pins, this gate is format-independent.
//   * Explorer counts: exact ExploreExhaustive counters at one thread.
//     Equal dedup hit/insert counts show the canonical fingerprint
//     partitions states exactly as the pinned build did; equal anchor
//     and sleep-set counts show the snapshot and undo engines walk the
//     same tree.
//   * Source topologies: one FNV-1a digest per RunScenario run of every
//     algorithm at one, two and four relations per source site, plus a
//     source crash and restart. Each digest covers what the source sites
//     can move: the final view, network and storage counters, installs,
//     replayed and ignored duplicate updates, and the consistency level.
//
// The constants were computed once and are deliberately never
// regenerated: a change here means the checkpoint format, the
// fingerprint's information content or the explored tree changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/str.h"
#include "harness/scenario.h"
#include "verify/controlled_run.h"
#include "verify/effects.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

struct CheckpointDigest {
  uint64_t fnv = 0xcbf29ce484222325ull;
  uint64_t bytes = 0;

  void Absorb(const std::string& s) {
    for (unsigned char c : s) {
      fnv ^= c;
      fnv *= 0x100000001b3ull;
    }
    bytes += s.size();
  }
};

// Calls `at_step(system, walk)` before the first step of each of `walks`
// seeded random walks over `scenario`, and after every step.
template <class F>
void ForEachWalkStep(const ControlledScenario& scenario, int walks,
                     F&& at_step) {
  for (int walk = 1; walk <= walks; ++walk) {
    RandomScheduler scheduler(static_cast<uint64_t>(walk));
    ControlledSystem system(scenario, &scheduler);
    at_step(system, walk);
    while (system.Run(1) == 1) at_step(system, walk);
  }
}

// Every step of `walks` seeded random walks over `scenario`, checkpointed.
CheckpointDigest DigestWalks(const ControlledScenario& scenario,
                             int walks) {
  CheckpointDigest digest;
  ForEachWalkStep(scenario, walks, [&digest](ControlledSystem& system, int) {
    digest.Absorb(system.warehouse().SerializeCheckpoint());
  });
  return digest;
}

// Restores the warehouse from its own checkpoint at every step of the
// walks and requires the exact debug dump of the whole system to be
// unchanged. The gate holds whatever the checkpoint's byte format is.
void ExpectCheckpointRoundTrips(const ControlledScenario& scenario,
                                const char* what) {
  int64_t step = 0;
  ForEachWalkStep(scenario, 8, [&](ControlledSystem& system, int walk) {
    const std::string before = system.CanonicalDebugDump();
    Warehouse& warehouse = system.mutable_warehouse();
    warehouse.RestoreFromCheckpoint(warehouse.SerializeCheckpoint());
    // Compared as a bool: a failure would otherwise print both dumps.
    EXPECT_TRUE(system.CanonicalDebugDump() == before)
        << what << " walk " << walk << " step " << step;
    ++step;
  });
}

struct Pin {
  Algorithm algorithm;
  uint64_t fnv;
  uint64_t bytes;
};

TEST(StateGoldenTest, PaperExampleCheckpoints) {
  const Pin pins[] = {
      {Algorithm::kSweep, 0x867bea4a2a4c6037ull, 77945},
      {Algorithm::kNestedSweep, 0xa42020c22fd796f0ull, 97603},
      {Algorithm::kStrobe, 0x1b10037e3cda60ebull, 48065},
      {Algorithm::kCStrobe, 0x411c0734abc4eed4ull, 91760},
      {Algorithm::kEca, 0xdb375d64c5eaf11full, 77416},
      {Algorithm::kRecompute, 0xacf5fe8c1bf6c559ull, 67442},
      {Algorithm::kParallelSweep, 0x3f91a1054458c149ull, 94638},
      {Algorithm::kPipelinedSweep, 0x14f8c6668b65d79aull, 152562},
  };
  for (const Pin& pin : pins) {
    const CheckpointDigest d =
        DigestWalks(PaperExampleScenario(pin.algorithm), 8);
    EXPECT_EQ(d.fnv, pin.fnv) << AlgorithmName(pin.algorithm);
    EXPECT_EQ(d.bytes, pin.bytes) << AlgorithmName(pin.algorithm);
  }
}

TEST(StateGoldenTest, FaultyPaperExampleCheckpoints) {
  const Pin pins[] = {
      {Algorithm::kSweep, 0x4cc507c83f8d067dull, 93438},
      {Algorithm::kNestedSweep, 0xe9d841963cc35eb3ull, 107696},
  };
  for (const Pin& pin : pins) {
    const CheckpointDigest d =
        DigestWalks(FaultyPaperExampleScenario(pin.algorithm), 8);
    EXPECT_EQ(d.fnv, pin.fnv) << AlgorithmName(pin.algorithm);
    EXPECT_EQ(d.bytes, pin.bytes) << AlgorithmName(pin.algorithm);
  }
}

TEST(StateGoldenTest, CheckpointRestoreLeavesEveryWalkStepUnchanged) {
  for (Algorithm algorithm : AllAlgorithmVariants()) {
    ExpectCheckpointRoundTrips(PaperExampleScenario(algorithm),
                               AlgorithmName(algorithm));
  }
  for (Algorithm algorithm : {Algorithm::kSweep, Algorithm::kNestedSweep}) {
    ExpectCheckpointRoundTrips(FaultyPaperExampleScenario(algorithm),
                               AlgorithmName(algorithm));
  }
}

struct Counts {
  int64_t schedules;
  int64_t executions;
  int64_t violations;
  int64_t sleep_pruned;
  int64_t refined_grants;
  int64_t anchor_snapshots;
  int64_t dedup_hits;
  int64_t dedup_inserts;
};

void ExpectCounts(const ExploreResult& r, const Counts& want) {
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, want.schedules);
  EXPECT_EQ(r.executions, want.executions);
  EXPECT_EQ(r.violations, want.violations);
  EXPECT_EQ(r.sleep_pruned, want.sleep_pruned);
  EXPECT_EQ(r.refined_grants, want.refined_grants);
  EXPECT_EQ(r.anchor_snapshots, want.anchor_snapshots);
  EXPECT_EQ(r.dedup_hits, want.dedup_hits);
  EXPECT_EQ(r.dedup_inserts, want.dedup_inserts);
}

ExplorerConfig GoldenConfig(ControlledScenario scenario, bool sleep_sets) {
  ExplorerConfig config{std::move(scenario),
                        PromisedConsistency(Algorithm::kSweep), sleep_sets,
                        /*max_schedules=*/10'000'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  config.threads = 1;
  config.dedup_states = true;
  return config;
}

TEST(StateGoldenTest, LossyNaiveDedupCounts) {
  const ExploreResult r = ExploreExhaustive(GoldenConfig(
      LossyPaperExampleScenario(Algorithm::kSweep), /*sleep_sets=*/false));
  ExpectCounts(r, Counts{435779, 15151, 0, 0, 0, 5445, 15740, 21728});
}

TEST(StateGoldenTest, FaultySleepSetEffectsCounts) {
  const ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  const EffectsIndex index = EffectsIndex::ForScenario(scenario);
  ExplorerConfig config = GoldenConfig(scenario, /*sleep_sets=*/true);
  config.effects = &index;
  ExpectCounts(ExploreExhaustive(config),
               Counts{3168, 2387, 0, 8668, 193, 807, 374, 5310});
}

// Digest of every RunScenario output a source site can influence.
uint64_t RunDigest(const RunResult& r) {
  std::string text = r.final_view.ToDisplayString();
  for (const NetworkStats::ClassStats& c : r.net.by_class) {
    text += StrFormat(" %lld/%lld", static_cast<long long>(c.messages),
                      static_cast<long long>(c.payload_tuples));
  }
  const NetworkStats::ReliabilityStats& f = r.net.reliability;
  for (int64_t counter :
       {f.drops_injected, f.partition_drops, f.dups_injected, f.crash_drops,
        f.retransmissions, f.dups_suppressed, f.acks_sent,
        f.messages_abandoned, r.installs, r.storage.index_probes,
        r.storage.index_matches, r.storage.scan_fallbacks,
        r.storage.index_builds, r.storage.indexes_maintained,
        r.updates_replayed, r.duplicate_updates_ignored}) {
    text += StrFormat(" %lld", static_cast<long long>(counter));
  }
  text += ConsistencyLevelName(r.consistency.level);
  CheckpointDigest digest;
  digest.Absorb(text);
  return digest.fnv;
}

ScenarioConfig TopologyConfig(Algorithm algorithm, int relations_per_site) {
  ScenarioConfig config;
  config.algorithm = algorithm;
  config.relations_per_site = relations_per_site;
  config.chain.num_relations = 4;
  config.chain.initial_tuples = 10;
  config.chain.join_domain = 4;
  config.workload.total_txns = 24;
  config.workload.mean_interarrival = 1500;
  config.latency = LatencyModel::Jittered(800, 600);
  return config;
}

TEST(StateGoldenTest, SourceTopologyRuns) {
  struct TopologyPin {
    Algorithm algorithm;
    uint64_t per_site[3];  // relations_per_site 1, 2, 4
  };
  const TopologyPin pins[] = {
      {Algorithm::kSweep,
       {0x1b3ea3713f1e53e9ull, 0xbe01676c1560079dull, 0xbe01676c1560079dull}},
      {Algorithm::kNestedSweep,
       {0xc3f56c572ec2800aull, 0xc3f56c572ec2800aull, 0xc3f56c572ec2800aull}},
      {Algorithm::kStrobe,
       {0xe71e1ffb93a3c6a4ull, 0xda8c80f0e1267b9dull, 0xe71e1ffb93a3c6a4ull}},
      {Algorithm::kCStrobe,
       {0x87c665314007f0dfull, 0x49d0b5fdb4ff376bull, 0xfd339471127513dbull}},
      {Algorithm::kEca,
       {0x6fa8737fbf788724ull, 0x6fa8737fbf788724ull, 0x6fa8737fbf788724ull}},
      {Algorithm::kRecompute,
       {0x5a9860089604234aull, 0xb22e0394cefe256aull, 0x884cff49de771625ull}},
      {Algorithm::kParallelSweep,
       {0x4a0998d868ce6defull, 0x5f02acf67373d31full, 0x5f02acf67373d31full}},
      {Algorithm::kPipelinedSweep,
       {0xb82e4bdf4037f2c9ull, 0xa815bdfc11095735ull, 0x6e68686c7ae45f19ull}},
  };
  const int per_site[] = {1, 2, 4};
  for (const TopologyPin& pin : pins) {
    for (int i = 0; i < 3; ++i) {
      const RunResult r =
          RunScenario(TopologyConfig(pin.algorithm, per_site[i]));
      EXPECT_EQ(RunDigest(r), pin.per_site[i])
          << AlgorithmName(pin.algorithm) << " per_site=" << per_site[i];
    }
  }
}

TEST(StateGoldenTest, SourceCrashRestartRun) {
  ScenarioConfig config = TopologyConfig(Algorithm::kSweep, 1);
  // Insert-only: a transaction the down source refuses must not be the
  // insert a later generated delete assumes happened.
  config.workload.insert_fraction = 1.0;
  config.fault_plan.enabled = true;
  config.fault_plan.reliability = true;
  config.fault_plan.query_timeout = 50'000;
  config.fault_plan.crashes = {{/*relation=*/1, /*crash_at=*/10'000,
                                /*restart_at=*/25'000}};
  const RunResult r = RunScenario(config);
  EXPECT_GT(r.updates_replayed, 0);
  EXPECT_GT(r.duplicate_updates_ignored, 0);
  EXPECT_EQ(RunDigest(r), 0x494e59b89f3215deull);
}

}  // namespace
}  // namespace sweepmv
