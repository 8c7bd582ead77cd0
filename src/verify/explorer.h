// Schedule-space explorer: the discrete-event simulator as a model
// checker.
//
// Treats one maintenance scenario (view, initial bases, a fixed set of
// source transactions) as a transition system whose nondeterminism is the
// scheduler's pick among ready events, and explores it:
//
//   * ExploreExhaustive — depth-first enumeration of every
//     FIFO-respecting interleaving, optionally pruned by sleep sets
//     (partial-order reduction over the "different affected site" =>
//     independent relation of verify/schedule.h), classified against the
//     paper's consistency lattice by consistency/checker. Sound for trace
//     properties: commuting independent events changes no site-local
//     history, so every Mazurkiewicz trace class is classified by its
//     explored representative.
//
//     One depth-first walker enumerates the tree for every engine. It
//     keeps ONE live system and steps it forward one event at a time; to
//     re-enter a branch node for its next child it restores a snapshot
//     taken there (ControlledSystem::SaveState), rolls the undo log back
//     to a watermark taken there, or, with share_prefixes=false (the
//     stateless engine), rebuilds the system and replays the path. The
//     stateless engine never snapshots and never attaches the undo log,
//     so comparing it with the others checks restored state against
//     freshly built state — docs/verification.md, "Prefix-sharing
//     execution". threads>1 splits the DFS frontier into subtree tasks
//     executed on a work-stealing pool (verify/pool.h); results merge in
//     DFS task order, so while the schedule budget does not bind, schedule
//     counts, verdicts, pruning stats and the minimized counterexample are
//     byte-identical for every thread count and steal order.
//
//   * ExploreRandom — seeded uniform random walks for scenarios whose
//     schedule space is too large to enumerate.
//
// A schedule whose run classifies below `required` is a violation; the
// first one found is greedily minimized (trailing defaults trimmed,
// choices lowered while the violation persists) and returned as a
// replayable counterexample — a protocol-level race report.

#ifndef SWEEPMV_VERIFY_EXPLORER_H_
#define SWEEPMV_VERIFY_EXPLORER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/controlled_run.h"
#include "verify/effects.h"

namespace sweepmv {

struct ExplorerConfig {
  ControlledScenario scenario;
  // Minimum acceptable consistency level; classifying below it makes a
  // schedule a violation. Set to the algorithm's PromisedConsistency to
  // check Table 1's promise, or kConvergent to hunt for divergence only.
  ConsistencyLevel required = ConsistencyLevel::kConvergent;
  // Sleep-set partial-order reduction (exhaustive mode). Off = naive
  // enumeration of every interleaving, for measuring the reduction.
  bool sleep_sets = true;
  // Budget of complete schedules. The search stops (exhausted=false) when
  // it reaches one more complete schedule, or a cached subtree holding
  // more, than the budget allows; a space of exactly this many schedules
  // is exhausted.
  int64_t max_schedules = 1'000'000;
  // Per-run step budget; a run that exceeds it classifies as a violation
  // (runaway schedule).
  int64_t max_steps_per_run = 100'000;
  // Stop at (and minimize) the first violation instead of counting all.
  // With threads > 1 the stop is per subtree task, not global: every task
  // still runs to completion (counts stay deterministic), each stopping
  // at its own first violation. Likewise max_schedules bounds each
  // subtree task, not the whole run, so the run can classify more
  // schedules than the budget.
  bool stop_at_first_violation = true;
  // Greedily minimize the first violating schedule.
  bool minimize = true;
  // Prefix-sharing engine (exhaustive mode): backtrack by snapshot
  // restore or undo rollback. False selects the stateless engine, which
  // backtracks by rebuilding the system and replaying the path, and so
  // checks the state the others restore against freshly built state.
  // Same schedules, verdicts and pruning stats either way.
  bool share_prefixes = true;
  // Worker threads for exhaustive exploration (requires share_prefixes).
  // The frontier is split into subtree tasks ahead of time and merged in
  // DFS order, so every thread count produces identical results.
  int threads = 1;
  // Undo-log backtracking (prefix-sharing engine): every controlled step
  // records the mutations it makes; re-entering a decision point pops
  // them back to the branch watermark — O(changes since the branch)
  // instead of O(system state) per backtrack. Full snapshots remain as
  // periodic safety anchors (below).
  bool use_undo = true;
  // Branch depths divisible by this take a full SaveState anchor and
  // backtrack by restore + discard; all other branches unwind the undo
  // log. 1 anchors every branch (the pure-snapshot engine); 0 never
  // anchors. Only meaningful with use_undo.
  int snapshot_anchor_every = 8;
  // State-space deduplication: fingerprint the system at every DFS node
  // and prune branches reaching an already-classified state, merging the
  // cached subtree's counts so totals match a dedup-off search. Composes
  // with sleep sets (the sleep set is part of the lookup key). Requires
  // share_prefixes.
  bool dedup_states = false;
  // Debug mode: on a dedup hit, explore the subtree anyway and assert the
  // recomputed summary matches the cached one (collision detector).
  bool verify_on_hit = false;
  // Refined independence (verify/effects.h): when set, the sleep-set
  // search adds one grant to the site rule, a controlled warehouse crash
  // commuting with a source transaction, and so prunes schedules the site
  // rule must enumerate. Null = site rule only. The pointer must outlive
  // the exploration and the index must be built for this config's
  // scenario.
  const EffectsIndex* effects = nullptr;
  // Debug soundness oracle: every time a sleep set keeps an event asleep
  // on the strength of an `effects` grant, CommuteAt replays the node in
  // both orders and the exploration aborts unless they reach one state.
  // The replays charge no tallies, so an oracle run counts exactly what
  // the same run without it counts. Requires `effects` and the
  // prefix-sharing engine.
  bool effects_oracle = false;
};

struct Counterexample {
  // Choice vector replaying the violation (RunWithChoices).
  std::vector<size_t> choices;
  // Full trace of the (minimized) violating run.
  ScheduleTrace trace;
  ConsistencyReport report;

  std::string Summary() const;
};

// What a search classified. Merging two searches, or a search and a
// cached subtree, adds these up.
struct ScheduleTallies {
  // Complete schedules executed and classified.
  int64_t schedules = 0;
  int64_t violations = 0;
  // Branches skipped because their event was in the sleep set, and
  // executions abandoned with every ready event sleeping. Zero with
  // sleep_sets off.
  int64_t sleep_pruned = 0;
  int64_t sleep_blocked = 0;
  // Interior decision points (ready set > 1) encountered.
  int64_t decision_points = 0;
  int64_t max_ready = 0;
  // Weakest level any schedule reached (kComplete when nothing ran).
  ConsistencyLevel worst = ConsistencyLevel::kComplete;

  // Counts add; max_ready and worst keep the extreme.
  void Add(const ScheduleTallies& other);
  bool operator==(const ScheduleTallies&) const = default;
};

struct ExploreResult : ScheduleTallies {
  // Controlled executions charged: one per complete schedule, plus every
  // fresh construct-and-replay (each backtrack of the stateless engine,
  // each frontier expansion and subtree task in parallel mode) and every
  // minimization probe. executions / schedules is the replay-redundancy
  // factor: ~1 with prefix sharing, above it for the stateless engine.
  int64_t executions = 0;
  // Independence queries the crash/transaction grant answered where the
  // site rule alone said dependent (config.effects set). Like `executions` it
  // counts work actually performed, so a dedup hit — which skips the
  // queries — does not replay it; totals are engine-dependent.
  int64_t refined_grants = 0;
  // The whole space was covered within the schedule budget (exhaustive
  // mode; random mode always reports false).
  bool exhausted = false;
  std::optional<Counterexample> counterexample;
  // --- Undo-log backtracking (use_undo) ---
  // Undo entries recorded across the search, watermark rollbacks taken,
  // and full snapshot anchors paid. entries/rollbacks is the mean
  // changes-per-backtrack the bench reports.
  int64_t undo_entries = 0;
  int64_t undo_rollbacks = 0;
  int64_t anchor_snapshots = 0;
  // --- State-space dedup (dedup_states) ---
  // Subtrees pruned by a visited-state hit and completed subtrees
  // inserted.
  int64_t dedup_hits = 0;
  int64_t dedup_inserts = 0;
  // Parallel exploration ran the sequential search instead, because the
  // frontier split produced fewer than two runnable subtree tasks (it
  // exhausted a tiny schedule space, or the scenario cannot fan out).
  bool parallel_fallback = false;
};

ExploreResult ExploreExhaustive(const ExplorerConfig& config);

ExploreResult ExploreRandom(const ExplorerConfig& config, int64_t walks,
                            uint64_t seed);

// Greedy minimization of a violating choice vector: trim trailing
// defaults, then try lowering every choice toward 0, keeping each change
// that still violates `required`. Returns the minimized vector;
// `executions`, if given, accumulates the probe-run count.
std::vector<size_t> MinimizeViolation(const ControlledScenario& scenario,
                                      ConsistencyLevel required,
                                      std::vector<size_t> choices,
                                      int64_t max_steps_per_run,
                                      int64_t* executions = nullptr);

// The effects oracle's check of one grant: replays `path` into a fresh
// system of `scenario` twice, runs `a` then `b` in one and `b` then `a` in
// the other, and returns true iff each event stays enabled after the
// other and both end states reach one canonical HashState.
// `a` and `b` name ready events of the node `path` reaches, each the head
// of its own channel. On false, `why` (if given) says which test failed.
bool CommuteAt(const ControlledScenario& scenario,
               const std::vector<size_t>& path, const EventLabel& a,
               const EventLabel& b, std::string* why = nullptr);

}  // namespace sweepmv

#endif  // SWEEPMV_VERIFY_EXPLORER_H_
