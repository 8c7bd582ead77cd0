// Snapshot/restore round-trips for the controlled system (src/verify/).
//
// The prefix-sharing explorer backtracks by restoring a ControlledSystem
// snapshot instead of replaying the schedule prefix. That is only sound
// if a restored system continues *byte-identically* to one that never
// detoured — for every maintenance algorithm, including the
// algorithm-specific half of the warehouse's state list. These tests pin
// that property directly, independent of the explorer built on top of
// it.

#include <gtest/gtest.h>

#include <string>

#include "verify/controlled_run.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

struct Terminal {
  std::string view;
  size_t installs = 0;
  int64_t steps = 0;
  ConsistencyLevel level = ConsistencyLevel::kInconsistent;
};

Terminal Drain(ControlledSystem& system) {
  Terminal t;
  t.steps = system.Run(100'000);
  EXPECT_TRUE(system.Drained());
  EXPECT_TRUE(system.WarehouseIdle());
  t.view = system.warehouse().view().ToDisplayString();
  t.installs = system.warehouse().install_log().size();
  t.level = system.Check().level;
  return t;
}

void ExpectSameTerminal(const Terminal& a, const Terminal& b,
                        const char* what) {
  EXPECT_EQ(a.view, b.view) << what;
  EXPECT_EQ(a.installs, b.installs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.level, b.level) << what;
}

TEST(SnapshotRestoreTest, MidRunRoundTripIsByteIdenticalPerAlgorithm) {
  for (Algorithm algo : AllAlgorithmVariants()) {
    ControlledScenario scenario = PaperExampleScenario(algo);
    // Empty choice vector = the deterministic default schedule; the
    // scheduler keeps picking index 0 after the restore too, so both
    // continuations follow the same schedule.
    ReplayScheduler scheduler(std::vector<size_t>{});
    ControlledSystem system(scenario, &scheduler);
    int64_t ran = system.Run(5);
    ASSERT_EQ(ran, 5) << AlgorithmName(algo);

    ControlledSystem::SavedState snap = system.SaveState();
    Terminal straight = Drain(system);

    system.RestoreState(snap);
    Terminal resumed = Drain(system);
    ExpectSameTerminal(straight, resumed, AlgorithmName(algo));
  }
}

TEST(SnapshotRestoreTest, SnapshotSurvivesRepeatedRestores) {
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  ASSERT_EQ(system.Run(3), 3);
  ControlledSystem::SavedState snap = system.SaveState();

  Terminal first = Drain(system);
  // A snapshot is not consumed by restoring: rewind from the terminal
  // state, partially advance, rewind again, then drain — still the same
  // terminal (the explorer restores the same decision point once per
  // remaining sibling).
  system.RestoreState(snap);
  ASSERT_EQ(system.Run(4), 4);
  system.RestoreState(snap);
  Terminal second = Drain(system);
  ExpectSameTerminal(first, second, "repeated restore");
}

TEST(SnapshotRestoreTest, SingleSourceEcaSystemRoundTrips) {
  // EcaAnomalyScenario wires ECA's single source (site 1), one DataSource
  // whose stores and logs span the whole chain, instead of one per
  // relation.
  for (bool compensation : {true, false}) {
    ControlledScenario scenario = EcaAnomalyScenario(compensation);
    ReplayScheduler scheduler(std::vector<size_t>{});
    ControlledSystem system(scenario, &scheduler);
    ASSERT_EQ(system.Run(4), 4);
    ControlledSystem::SavedState snap = system.SaveState();
    Terminal straight = Drain(system);
    system.RestoreState(snap);
    Terminal resumed = Drain(system);
    ExpectSameTerminal(straight, resumed,
                       compensation ? "eca" : "eca-naive");
  }
}

// Choice script that can be rewritten mid-run — what the DFS does with
// SetNext, reduced to its essentials for testing.
class ScriptScheduler : public Scheduler {
 public:
  explicit ScriptScheduler(std::vector<size_t> script)
      : script_(std::move(script)) {}

  size_t Pick(const std::vector<Candidate>& ready) override {
    size_t choice = cursor_ < script_.size() ? script_[cursor_++] : 0;
    if (choice >= ready.size()) choice = ready.size() - 1;
    return choice;
  }

  void Rewind(std::vector<size_t> script, size_t cursor) {
    script_ = std::move(script);
    cursor_ = cursor;
  }

 private:
  std::vector<size_t> script_;
  size_t cursor_ = 0;
};

TEST(SnapshotRestoreTest, RestoredBranchesDoNotLeakIntoEachOther) {
  // Snapshot at a decision point, explore sibling A to the end, restore,
  // explore sibling B — each terminal must equal the terminal of a fresh
  // system that took that branch directly. This is exactly the explorer's
  // backtracking step, so any state missed by Save/RestoreState shows up
  // here as cross-branch leakage.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);

  auto fresh_terminal = [&](size_t third_choice) {
    ReplayScheduler scheduler({0, 0, third_choice});
    ControlledSystem system(scenario, &scheduler);
    // Match the snapshot run's position so the drained step counts
    // compare like for like.
    EXPECT_EQ(system.Run(2), 2);
    return Drain(system);
  };
  Terminal fresh_a = fresh_terminal(0);
  Terminal fresh_b = fresh_terminal(1);

  ScriptScheduler scheduler({0, 0});
  ControlledSystem system(scenario, &scheduler);
  ASSERT_EQ(system.Run(2), 2);
  ControlledSystem::SavedState snap = system.SaveState();

  scheduler.Rewind({0, 0, 0}, 2);
  Terminal branch_a = Drain(system);
  ExpectSameTerminal(branch_a, fresh_a, "branch A after snapshot");

  system.RestoreState(snap);
  scheduler.Rewind({0, 0, 1}, 2);
  Terminal branch_b = Drain(system);
  ExpectSameTerminal(branch_b, fresh_b, "branch B after restore");
}

}  // namespace
}  // namespace sweepmv
