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
//   * Explorer counts: exact ExploreExhaustive counters at one thread.
//     Equal dedup hit/insert counts show the canonical fingerprint
//     partitions states exactly as the pinned build did; equal anchor
//     and sleep-set counts show the snapshot and undo engines walk the
//     same tree.
//
// The constants were computed once and are deliberately never
// regenerated: a change here means the checkpoint format, the
// fingerprint's information content or the explored tree changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

// Every step of `walks` seeded random walks over `scenario`, checkpointed.
CheckpointDigest DigestWalks(const ControlledScenario& scenario,
                             int walks) {
  CheckpointDigest digest;
  for (int walk = 1; walk <= walks; ++walk) {
    RandomScheduler scheduler(static_cast<uint64_t>(walk));
    ControlledSystem system(scenario, &scheduler);
    digest.Absorb(system.warehouse().SerializeCheckpoint());
    while (system.Run(1) == 1) {
      digest.Absorb(system.warehouse().SerializeCheckpoint());
    }
  }
  return digest;
}

struct Pin {
  Algorithm algorithm;
  uint64_t fnv;
  uint64_t bytes;
};

TEST(StateGoldenTest, PaperExampleCheckpoints) {
  const Pin pins[] = {
      {Algorithm::kSweep, 0xc6073c3a0d7bd8a9ull, 96048},
      {Algorithm::kNestedSweep, 0xbdf3a801434bbaa1ull, 103297},
      {Algorithm::kStrobe, 0x7ec675094421fb14ull, 56416},
      {Algorithm::kCStrobe, 0x1efc59949da40f71ull, 102157},
      {Algorithm::kEca, 0xcf095f7298e48ceaull, 83880},
      {Algorithm::kRecompute, 0x9770488411a889c1ull, 83010},
      {Algorithm::kParallelSweep, 0x76e77e9e0ec44c07ull, 112814},
      {Algorithm::kPipelinedSweep, 0x2852129ac7320417ull, 163386},
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
      {Algorithm::kSweep, 0xace07ac6d6ea8695ull, 104516},
      {Algorithm::kNestedSweep, 0xd9505d237a9a71cdull, 108816},
  };
  for (const Pin& pin : pins) {
    const CheckpointDigest d =
        DigestWalks(FaultyPaperExampleScenario(pin.algorithm), 8);
    EXPECT_EQ(d.fnv, pin.fnv) << AlgorithmName(pin.algorithm);
    EXPECT_EQ(d.bytes, pin.bytes) << AlgorithmName(pin.algorithm);
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

}  // namespace
}  // namespace sweepmv
