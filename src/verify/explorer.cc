#include "verify/explorer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/str.h"
#include "common/undo.h"
#include "verify/pool.h"

namespace sweepmv {

namespace {

// A parallel request whose frontier split yields fewer runnable subtree
// tasks than this runs the sequential search instead: the split already
// enumerated most of the space, or the scenario cannot fan out, and the
// pool would add synchronization cost without parallel work.
constexpr size_t kMinParallelTasks = 2;

bool Contains(const std::vector<EventId>& set, const EventId& id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

// The independence relation only needs each event's affected site, which
// its channel determines; reconstruct a label from the id.
EventLabel LabelOfChannelHead(const EventId& id) {
  EventLabel label;
  label.kind = id.channel.kind;
  label.from = id.channel.from;
  label.to = id.channel.to;
  return label;
}

// Full label of a sleep-set entry, for the refined independence check:
// a slept event stays enabled (its channel head is untouched by the
// independent steps that kept it asleep), so it is normally present in
// the node's ready set — match it there to recover the complete label
// (kind, sites, `what` tag). The channel-head fallback loses the tag,
// which makes internal events unresolvable and degrades them to the
// site rule's always-dependent verdict — sound, never unsound.
EventLabel ResolveSleepLabel(const EventId& z,
                             const std::vector<EventId>& ids,
                             const std::vector<Scheduler::Candidate>& ready) {
  for (size_t j = 0; j < ids.size(); ++j) {
    if (ids[j] == z) return ready[j].label;
  }
  return LabelOfChannelHead(z);
}

struct ChannelLess {
  bool operator()(const ChannelId& a, const ChannelId& b) const {
    return std::tie(a.kind, a.from, a.to) < std::tie(b.kind, b.from, b.to);
  }
};
// Events executed so far per channel: the k-th event of a channel is
// EventId{channel, k}, found in O(1) instead of by scanning the path.
using ExecutedCounts = std::map<ChannelId, int64_t, ChannelLess>;

// One opened DFS node: the ready set, each candidate's event id, and the
// candidates not asleep (none = the node is sleep-blocked).
struct Node {
  std::vector<Scheduler::Candidate> ready;
  std::vector<EventId> ids;
  std::vector<size_t> explorable;
};

// Godefroid's sleep-set rule, for the child that runs `node.ready[i]`:
// everything asleep at the node (`sleep`) or explored in an earlier
// sibling (`done`) stays asleep below it, provided it commutes with the
// step taken. With the effects oracle, every grant the refined relation
// makes here is replayed in both orders from the node, which `path`
// reaches.
std::vector<EventId> ChildSleep(const ExplorerConfig& config,
                                const std::vector<size_t>& path,
                                const Node& node,
                                const std::vector<EventId>& sleep,
                                const std::vector<EventId>& done, size_t i,
                                int64_t* refined_grants) {
  const EventLabel& step = node.ready[i].label;
  std::vector<EventId> child;
  for (const std::vector<EventId>* set : {&sleep, &done}) {
    for (const EventId& z : *set) {
      const EventLabel slept = ResolveSleepLabel(z, node.ids, node.ready);
      int64_t granted = 0;
      if (!IndependentUnder(config.effects, slept, step, &granted)) continue;
      if (granted > 0 && config.effects_oracle) {
        std::string why;
        SWEEP_CHECK_MSG(CommuteAt(config.scenario, path, slept, step, &why),
                        ("effects oracle: " + why).c_str());
      }
      *refined_grants += granted;
      child.push_back(z);
    }
  }
  return child;
}

// Minimizes a violating schedule (config.minimize) and replays it once
// for its trace and report.
Counterexample FinishCounterexample(const ExplorerConfig& config,
                                    std::vector<size_t> choices,
                                    int64_t* executions) {
  if (config.minimize) {
    choices = MinimizeViolation(config.scenario, config.required,
                                std::move(choices), config.max_steps_per_run,
                                executions);
  }
  const ControlledOutcome final_run =
      RunWithChoices(config.scenario, choices, config.max_steps_per_run);
  ++*executions;
  Counterexample cx;
  cx.choices = std::move(choices);
  cx.trace = final_run.trace;
  cx.report = final_run.report;
  return cx;
}

// Classification shared by every mode: counts a complete schedule
// against the budget, tracks the worst level, and captures the first
// violation. With `defer_minimize` (parallel subtree tasks) the
// counterexample keeps only the raw choice vector; minimization and the
// final replay happen once, after the DFS-ordered merge picks the
// globally first violation — which is exactly the one the sequential
// search would minimize, keeping the output thread-count-invariant.
struct SearchCore {
  SearchCore(const ExplorerConfig& config, bool defer_minimize)
      : config(config),
        defer_minimize(defer_minimize),
        budget_left(config.max_schedules) {}

  const ExplorerConfig& config;
  bool defer_minimize;
  ExploreResult result;
  bool stop = false;
  // Complete schedules this search may still classify.
  int64_t budget_left;
  // Full choice vector of every recorded violation, in DFS order. The
  // visited table stores a completed subtree's first violation as a
  // suffix relative to the subtree root, so a later hit at a different
  // prefix can reconstruct exactly the counterexample a dedup-off search
  // would have reported there. Only populated when dedup is on.
  std::vector<std::vector<size_t>> violation_paths;

  // Charges `n` complete schedules to the budget. When they would
  // overrun it, the search stops instead and reports the space as not
  // covered.
  bool Spend(int64_t n) {
    if (n > budget_left) {
      stop = true;
      result.exhausted = false;
      return false;
    }
    budget_left -= n;
    return true;
  }

  void Classify(const ControlledOutcome& outcome,
                const std::vector<size_t>& choices) {
    if (!Spend(1)) return;
    ++result.schedules;
    result.worst = std::min(result.worst, outcome.report.level);
    if (outcome.report.level >= config.required) return;
    ++result.violations;
    if (config.dedup_states) violation_paths.push_back(choices);
    if (!result.counterexample.has_value()) {
      result.counterexample =
          defer_minimize
              ? Counterexample{choices, {}, outcome.report}
              : FinishCounterexample(config, choices, &result.executions);
    }
    if (config.stop_at_first_violation) stop = true;
  }
};

// Folds a subtree task's result (or a frontier expansion's) into
// `merged`. The counterexample is order-sensitive: the first one folded
// in wins.
void MergeTask(const ExploreResult& r, ExploreResult& merged) {
  merged.Add(r);
  merged.executions += r.executions;
  merged.refined_grants += r.refined_grants;
  merged.exhausted = merged.exhausted && r.exhausted;
  merged.undo_entries += r.undo_entries;
  merged.undo_rollbacks += r.undo_rollbacks;
  merged.anchor_snapshots += r.anchor_snapshots;
  merged.dedup_hits += r.dedup_hits;
  merged.dedup_inserts += r.dedup_inserts;
  if (!merged.counterexample.has_value() && r.counterexample.has_value()) {
    merged.counterexample = r.counterexample;
  }
}

// ---------------------------------------------------------------------
// Visited-state table (dedup_states): turns the DFS tree into a DAG.
//
// Key: the canonical 128-bit state fingerprint, plus a context digest of
// the node's depth and sleep set. Depth matters because the remaining
// step budget — and therefore the subtree's classification — depends on
// it; the sleep set matters because it prunes different children (two
// visits of one state under different sleep sets explore different
// subtrees). Value: the complete, deterministic summary of the subtree
// explored below that key. A later visit of the same key merges the
// cached summary instead of re-exploring, so dedup-on totals equal
// dedup-off totals exactly — whichever schedule, thread, or steal order
// populated the entry first.
// ---------------------------------------------------------------------

struct VisitedKey {
  Fp128 fp;
  uint64_t ctx = 0;

  bool operator==(const VisitedKey& other) const {
    return fp == other.fp && ctx == other.ctx;
  }
};

struct VisitedKeyHash {
  size_t operator()(const VisitedKey& key) const {
    return static_cast<size_t>(key.fp.lo ^ (key.fp.hi * 31) ^ key.ctx);
  }
};

// Everything deterministic the merge needs. `executions` is deliberately
// absent: it counts real work done, and a hit does none.
struct SubtreeSummary {
  ScheduleTallies tallies;
  // First violation below the subtree root, as choices relative to it;
  // empty when the subtree is clean. Only branch nodes are summarized, so
  // a violation below one is at least one step deeper.
  std::vector<size_t> violation_suffix;

  bool operator==(const SubtreeSummary&) const = default;
};

// Shared across the work-stealing pool: only fully-completed subtrees are
// inserted, and a summary is a pure function of its key, so concurrent
// explorations of the same state race only on who inserts the identical
// value first. Sharded by key hash so eight threads doing a lookup per
// branch node contend on different locks, not one global one.
class VisitedTable {
 public:
  std::optional<SubtreeSummary> Lookup(const VisitedKey& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  void Insert(const VisitedKey& key, SubtreeSummary summary) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.emplace(key, std::move(summary));
  }

 private:
  static constexpr size_t kShards = 64;

  struct Shard {
    std::mutex mu;
    std::unordered_map<VisitedKey, SubtreeSummary, VisitedKeyHash> map;
  };

  Shard& ShardOf(const VisitedKey& key) {
    return shards_[VisitedKeyHash{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

VisitedKey MakeVisitedKey(const Fp128& fp, size_t depth,
                          const std::vector<EventId>& sleep) {
  StateHasher h;
  h.U64("node.depth", depth);
  std::vector<EventId> sorted = sleep;
  std::sort(sorted.begin(), sorted.end(),
            [](const EventId& a, const EventId& b) {
              return std::tie(a.channel.kind, a.channel.from, a.channel.to,
                              a.index) < std::tie(b.channel.kind,
                                                  b.channel.from,
                                                  b.channel.to, b.index);
            });
  h.U64("sleep.size", sorted.size());
  for (const EventId& id : sorted) {
    h.I64("sleep.kind", static_cast<int64_t>(id.channel.kind));
    h.I64("sleep.from", id.channel.from);
    h.I64("sleep.to", id.channel.to);
    h.I64("sleep.index", id.index);
  }
  const Fp128 ctx = h.Digest();
  return VisitedKey{fp, ctx.lo ^ ctx.hi};
}

// ---------------------------------------------------------------------
// The walker: ONE live system, stepped forward one event at a time. To
// re-enter a branch node for its next child it restores a snapshot taken
// there, rolls the undo log back to a watermark taken there, or (the
// stateless engine, share_prefixes = false) rebuilds the system and
// replays the path. Nodes are opened the same way whichever backtrack
// is used, so every engine walks the same tree.
// ---------------------------------------------------------------------

// Replays a fixed prefix, then forwards whatever choice the walker set
// last. It records no trace — the walker tracks choices (path) and
// channel counts (ExecutedCounts) itself, which keeps the per-step cost
// O(1). During the prefix replay it does tally per-channel counts, so a
// rebuilt system's EventIds keep the absolute indices its sleep sets are
// expressed in.
class SteppingScheduler : public Scheduler {
 public:
  explicit SteppingScheduler(std::vector<size_t> prefix)
      : prefix_(std::move(prefix)) {}

  size_t Pick(const std::vector<Candidate>& ready) override {
    SWEEP_CHECK(!ready.empty());
    const bool replaying = cursor_ < prefix_.size();
    size_t choice = replaying ? prefix_[cursor_++] : next_;
    if (choice >= ready.size()) choice = ready.size() - 1;
    if (replaying) ++replay_counts_[ChannelOf(ready[choice].label)];
    return choice;
  }

  void SetNext(size_t choice) { next_ = choice; }

  // Per-channel event counts of the replayed prefix.
  const ExecutedCounts& replay_counts() const { return replay_counts_; }

 private:
  std::vector<size_t> prefix_;
  size_t cursor_ = 0;
  size_t next_ = 0;
  ExecutedCounts replay_counts_;
};

struct Walker {
  explicit Walker(SearchCore search) : core(std::move(search)) {
    core.result.exhausted = true;
  }

  SearchCore core;
  VisitedTable* visited = nullptr;
  std::optional<SteppingScheduler> scheduler;
  std::optional<ControlledSystem> system;
  ExecutedCounts executed;
  std::vector<size_t> path;  // root-to-current choice vector
  // Mutations of every controlled step land here (use_undo); branch nodes
  // watermark it and siblings rewind by popping — O(changes since the
  // branch) instead of O(system state).
  UndoLog undo;

  // What a snapshot anchor rewinds: the system's full state and the
  // channel counts (path is maintained push/pop-wise by the DFS itself).
  struct Snapshot {
    ControlledSystem::SavedState sys;
    ExecutedCounts executed;
  };

  // An insertable node's tallies at entry. Opening the scope parks them
  // and resets the live ones, so on completion the live tallies are the
  // subtree's own — a pure function of the visited key, which the
  // verify_on_hit equality check requires. Closing folds the parked
  // tallies back in; it must run on every exit, the early stop included.
  struct Scope {
    ScheduleTallies entry;
    size_t first_violation = 0;  // index into core.violation_paths
  };

  Scope OpenScope() {
    Scope scope{core.result, core.violation_paths.size()};
    static_cast<ScheduleTallies&>(core.result) = ScheduleTallies{};
    return scope;
  }

  void CloseScope(const Scope& scope) { core.result.Add(scope.entry); }

  SubtreeSummary Summarize(const Scope& scope) const {
    SubtreeSummary s;
    s.tallies = core.result;
    if (core.violation_paths.size() > scope.first_violation) {
      const std::vector<size_t>& full =
          core.violation_paths[scope.first_violation];
      SWEEP_CHECK(full.size() > path.size());
      s.violation_suffix.assign(
          full.begin() + static_cast<ptrdiff_t>(path.size()), full.end());
    }
    return s;
  }

  // Merges a cached subtree exactly as exploring it would have.
  void MergeSummary(const SubtreeSummary& s) {
    if (!core.Spend(s.tallies.schedules)) return;
    core.result.Add(s.tallies);
    if (s.violation_suffix.empty()) return;
    std::vector<size_t> full = path;
    full.insert(full.end(), s.violation_suffix.begin(),
                s.violation_suffix.end());
    core.violation_paths.push_back(full);
    if (!core.result.counterexample.has_value()) {
      // The cached subtree's first violation, re-rooted at this prefix
      // — the schedule a dedup-off search reaching this node first
      // would have found. Deferred finalization fills trace and report.
      SWEEP_CHECK_MSG(core.defer_minimize,
                      "a sequential search explores before it can hit");
      core.result.counterexample = Counterexample{std::move(full), {}, {}};
    }
    if (core.config.stop_at_first_violation) core.stop = true;
  }

  // Builds a fresh system and replays `prefix` into it: the root of a
  // (subtree) search, every stateless backtrack, and every frontier
  // expansion. The caller charges the execution.
  void Rebuild(const std::vector<size_t>& prefix) {
    system.reset();
    scheduler.emplace(prefix);
    system.emplace(core.config.scenario, &*scheduler);
    const int64_t ran = system->Run(static_cast<int64_t>(prefix.size()));
    SWEEP_CHECK_MSG(ran == static_cast<int64_t>(prefix.size()),
                    "schedule prefix drained early");
    path = prefix;
    executed = scheduler->replay_counts();
  }

  // Explores the subtree below `prefix` (a subtree task's root, or the
  // empty prefix), whose sleep set is `sleep`.
  void Explore(const std::vector<size_t>& prefix,
               std::vector<EventId> sleep) {
    const ExplorerConfig& config = core.config;
    Rebuild(prefix);
    if (!prefix.empty()) ++core.result.executions;
    // Attach after the replay: the prefix is never backtracked past, so
    // its mutations need no undo entries.
    if (config.share_prefixes && config.use_undo) system->AttachUndo(&undo);
    Visit(std::move(sleep));
    core.result.undo_entries += undo.entries_recorded();
    core.result.undo_rollbacks += undo.rollbacks();
  }

  // Opens the node at `path`. A complete schedule (drained, or at the
  // step budget) is classified and opens no node; otherwise the node is
  // counted and its children listed.
  std::optional<Node> Open(const std::vector<EventId>& sleep) {
    const ExplorerConfig& config = core.config;
    ExploreResult& result = core.result;
    Node node;
    node.ready = system->Ready();
    const int64_t steps = static_cast<int64_t>(path.size());
    if (node.ready.empty() || steps >= config.max_steps_per_run) {
      ++result.executions;
      core.Classify(RunVerdict(*system, steps), path);
      return std::nullopt;
    }
    result.max_ready =
        std::max(result.max_ready, static_cast<int64_t>(node.ready.size()));
    if (node.ready.size() > 1) ++result.decision_points;
    node.ids.reserve(node.ready.size());
    for (size_t i = 0; i < node.ready.size(); ++i) {
      EventId id;
      id.channel = ChannelOf(node.ready[i].label);
      const auto it = executed.find(id.channel);
      id.index = it == executed.end() ? 0 : it->second;
      node.ids.push_back(id);
      if (config.sleep_sets && Contains(sleep, id)) {
        ++result.sleep_pruned;
        continue;
      }
      node.explorable.push_back(i);
    }
    if (node.explorable.empty()) ++result.sleep_blocked;
    return node;
  }

  void Visit(std::vector<EventId> sleep) {
    if (core.stop) return;
    const std::optional<Node> node = Open(sleep);
    if (!node.has_value() || node->explorable.empty()) return;
    const ExplorerConfig& config = core.config;
    ExploreResult& result = core.result;
    // Only branching nodes pay for backtrack state; chains just step
    // forward.
    const bool branch = node->explorable.size() > 1;

    // Visited-state lookup, branch nodes only: same fingerprint + same
    // depth + same sleep set => same subtree; merge the cached summary
    // instead of exploring. Chain nodes (one explorable child) are never
    // keyed — they outnumber branches an order of magnitude and a
    // confluent chain is caught at its next branch anyway, so hashing
    // them buys almost nothing at full O(state) cost per node. A node's
    // own max_ready / decision_points / sleep_pruned are counted by Open,
    // before the scope: the hit-time node re-derives them identically
    // from the identical state, so merged totals still equal a dedup-off
    // search exactly.
    VisitedKey key;
    std::optional<SubtreeSummary> cached;
    std::optional<Scope> scope;
    if (branch && config.dedup_states && visited != nullptr) {
      Fp128 fp;
      system->HashState(&fp);
      key = MakeVisitedKey(fp, path.size(), sleep);
      cached = visited->Lookup(key);
      if (cached.has_value()) {
        ++result.dedup_hits;
        if (!config.verify_on_hit) {
          MergeSummary(*cached);
          return;
        }
      }
      scope = OpenScope();
    }

    // Backtrack state. The stateless engine keeps none: it rebuilds. With
    // the undo log the default cost is a watermark; depths on the anchor
    // cadence (and every branch when the log is off) pay for a full
    // snapshot instead, bounding how much any single rollback must
    // unwind.
    const bool rebuild = !config.share_prefixes;
    const bool anchor =
        branch && !rebuild &&
        (!config.use_undo ||
         (config.snapshot_anchor_every > 0 &&
          path.size() % static_cast<size_t>(config.snapshot_anchor_every) ==
              0));
    UndoLog::Mark mark = 0;
    std::optional<Snapshot> snap;
    ExecutedCounts executed_at_branch;
    if (branch && !rebuild) {
      if (config.use_undo) mark = undo.MarkPoint();
      if (anchor) {
        snap.emplace(Snapshot{system->SaveState(), executed});
        ++result.anchor_snapshots;
      } else {
        executed_at_branch = executed;
      }
    }

    std::vector<EventId> done;
    for (size_t i : node->explorable) {
      if (!done.empty()) {
        if (rebuild) {
          Rebuild(path);
          ++result.executions;
        } else if (anchor) {
          system->RestoreState(snap->sys);
          undo.DiscardTo(mark);
          executed = snap->executed;
        } else {
          undo.RollbackTo(mark);
          executed = executed_at_branch;
        }
      }
      std::vector<EventId> child_sleep;
      if (config.sleep_sets) {
        child_sleep = ChildSleep(config, path, *node, sleep, done, i,
                                 &result.refined_grants);
      }
      scheduler->SetNext(i);
      const int64_t ran = system->Run(1);
      SWEEP_CHECK_MSG(ran == 1, "ready event failed to execute");
      ++executed[node->ids[i].channel];
      path.push_back(i);
      Visit(std::move(child_sleep));
      path.pop_back();
      if (core.stop) {
        if (scope.has_value()) CloseScope(*scope);
        return;
      }
      done.push_back(node->ids[i]);
    }

    // Subtree fully classified: record it in the visited table, or —
    // verify_on_hit after a hit — check the re-exploration reproduced
    // the cached summary bit for bit.
    if (!scope.has_value()) return;
    SubtreeSummary summary = Summarize(*scope);
    CloseScope(*scope);
    if (cached.has_value()) {
      SWEEP_CHECK_MSG(summary == *cached,
                      "visited-state hit disagreed with re-exploration "
                      "(fingerprint collision or nondeterministic step)");
      return;
    }
    visited->Insert(key, std::move(summary));
    ++result.dedup_inserts;
  }
};

ExploreResult ExploreSequential(const ExplorerConfig& config) {
  VisitedTable table;
  Walker walker(SearchCore(config, /*defer_minimize=*/false));
  walker.visited = &table;
  walker.Explore({}, {});
  return std::move(walker.core.result);
}

// ---------------------------------------------------------------------
// Parallel exploration: split the DFS frontier into subtree tasks, run
// them on the work-stealing pool, merge in DFS task order.
// ---------------------------------------------------------------------

// One leaf of the frontier split: either a schedule already classified
// during expansion (terminal), or a pending subtree task for the pool.
struct FrontierSlot {
  std::vector<size_t> prefix;
  std::vector<EventId> sleep;
  bool runnable = false;
  ExploreResult partial;
};

// Expands the frontier breadth-first (shallowest slot first) until at
// least `target` runnable subtree tasks exist. Each expansion rebuilds
// the slot's prefix and opens its node exactly as the walker does, so
// the union of the subtrees is the same node set the sequential search
// visits. Runs single-threaded; every expansion's execution and the
// counts of the nodes it opens are charged to `expand_stats`, a terminal
// slot's classification to the slot.
void SplitFrontier(const ExplorerConfig& config, size_t target,
                   std::list<FrontierSlot>& slots,
                   ExploreResult& expand_stats) {
  slots.push_back(FrontierSlot{{}, {}, true, ExploreResult{}});
  for (;;) {
    size_t runnable = 0;
    auto expand_it = slots.end();
    for (auto it = slots.begin(); it != slots.end(); ++it) {
      if (!it->runnable) continue;
      ++runnable;
      if (expand_it == slots.end() ||
          it->prefix.size() < expand_it->prefix.size()) {
        expand_it = it;
      }
    }
    if (runnable >= target || expand_it == slots.end()) return;

    Walker expand(SearchCore(config, /*defer_minimize=*/true));
    expand.Rebuild(expand_it->prefix);
    ++expand_stats.executions;
    const std::optional<Node> node = expand.Open(expand_it->sleep);
    if (!node.has_value()) {
      // The expanded node is itself a complete schedule, classified in
      // place so the slot keeps its DFS position in the merge order.
      expand_it->runnable = false;
      expand_it->partial = std::move(expand.core.result);
      continue;
    }
    std::list<FrontierSlot> children;
    std::vector<EventId> done;
    for (size_t i : node->explorable) {
      std::vector<EventId> child_sleep;
      if (config.sleep_sets) {
        child_sleep = ChildSleep(config, expand_it->prefix, *node,
                                 expand_it->sleep, done, i,
                                 &expand.core.result.refined_grants);
      }
      std::vector<size_t> child_prefix = expand_it->prefix;
      child_prefix.push_back(i);
      children.push_back(FrontierSlot{std::move(child_prefix),
                                      std::move(child_sleep), true,
                                      ExploreResult{}});
      done.push_back(node->ids[i]);
    }
    MergeTask(expand.core.result, expand_stats);
    slots.splice(expand_it, std::move(children));
    slots.erase(expand_it);
  }
}

ExploreResult ExploreParallel(const ExplorerConfig& config) {
  ExploreResult expand_stats;
  expand_stats.exhausted = true;
  std::list<FrontierSlot> slots;
  // Enough tasks per worker that stealing can balance uneven subtrees.
  const size_t target = static_cast<size_t>(config.threads) * 8;
  SplitFrontier(config, target, slots, expand_stats);

  std::vector<FrontierSlot*> tasks;
  for (FrontierSlot& slot : slots) {
    if (slot.runnable) tasks.push_back(&slot);
  }

  // Too few tasks: run the sequential search, whose totals are identical
  // by construction, and charge the split's executions as the cost of
  // finding out.
  if (tasks.size() < kMinParallelTasks) {
    ExploreResult result = ExploreSequential(config);
    result.executions += expand_stats.executions;
    result.parallel_fallback = true;
    return result;
  }

  // Visited-state table shared by every subtree task: a summary is a pure
  // function of its key, so the totals are identical whichever worker
  // inserts first.
  VisitedTable table;
  WorkStealingPool pool(config.threads);
  pool.Run(static_cast<int64_t>(tasks.size()), [&](int64_t t) {
    FrontierSlot* slot = tasks[static_cast<size_t>(t)];
    Walker walker(SearchCore(config, /*defer_minimize=*/true));
    walker.visited = &table;
    walker.Explore(slot->prefix, slot->sleep);
    slot->partial = std::move(walker.core.result);
  });

  // Merge in DFS (slot) order: sums and min/max are order-independent;
  // the counterexample takes the first slot's — the same violation the
  // sequential DFS reaches first. Only that one is minimized and replayed.
  ExploreResult merged = std::move(expand_stats);
  for (const FrontierSlot& slot : slots) MergeTask(slot.partial, merged);
  if (merged.counterexample.has_value()) {
    merged.counterexample = FinishCounterexample(
        config, std::move(merged.counterexample->choices),
        &merged.executions);
  }
  return merged;
}

}  // namespace

void ScheduleTallies::Add(const ScheduleTallies& other) {
  schedules += other.schedules;
  violations += other.violations;
  sleep_pruned += other.sleep_pruned;
  sleep_blocked += other.sleep_blocked;
  decision_points += other.decision_points;
  max_ready = std::max(max_ready, other.max_ready);
  worst = std::min(worst, other.worst);
}

std::string Counterexample::Summary() const {
  std::string out = StrFormat(
      "violation: level %s (%s)\nchoices:",
      ConsistencyLevelName(report.level), report.detail.c_str());
  for (size_t c : choices) out += StrFormat(" %zu", c);
  out += "\nschedule:\n" + trace.ToString();
  return out;
}

ExploreResult ExploreExhaustive(const ExplorerConfig& config) {
  SWEEP_CHECK_MSG(config.threads >= 1, "threads must be positive");
  SWEEP_CHECK_MSG(config.share_prefixes || config.threads == 1,
                  "parallel exploration requires prefix sharing");
  SWEEP_CHECK_MSG(config.share_prefixes || !config.dedup_states,
                  "state dedup requires the prefix-sharing engine");
  SWEEP_CHECK_MSG(!config.effects_oracle || (config.effects != nullptr &&
                                              config.share_prefixes),
                  "the effect oracle needs an effects index and the "
                  "prefix-sharing engine");
  ExploreResult result = config.threads > 1 ? ExploreParallel(config)
                                             : ExploreSequential(config);
  if (result.violations > 0 && config.stop_at_first_violation) {
    // Stopped early by design; the space was not necessarily covered.
    result.exhausted = false;
  }
  return result;
}

ExploreResult ExploreRandom(const ExplorerConfig& config, int64_t walks,
                            uint64_t seed) {
  SearchCore core(config, /*defer_minimize=*/false);
  Rng root(seed);
  for (int64_t w = 0; w < walks && !core.stop && core.budget_left > 0; ++w) {
    RandomScheduler scheduler(root.Next());
    ControlledSystem system(config.scenario, &scheduler);
    ++core.result.executions;
    const ControlledOutcome outcome =
        RunVerdict(system, system.Run(config.max_steps_per_run));
    for (const TraceStep& step : scheduler.trace().steps) {
      core.result.max_ready = std::max(
          core.result.max_ready, static_cast<int64_t>(step.ready.size()));
      if (step.ready.size() > 1) ++core.result.decision_points;
    }
    core.Classify(outcome, scheduler.trace().Choices());
  }
  return std::move(core.result);
}

std::vector<size_t> MinimizeViolation(const ControlledScenario& scenario,
                                      ConsistencyLevel required,
                                      std::vector<size_t> choices,
                                      int64_t max_steps_per_run,
                                      int64_t* executions) {
  const auto violates = [&](const std::vector<size_t>& candidate) {
    if (executions != nullptr) ++(*executions);
    ControlledOutcome outcome =
        RunWithChoices(scenario, candidate, max_steps_per_run);
    return outcome.report.level < required;
  };
  const auto trim = [](std::vector<size_t>& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };

  trim(choices);
  SWEEP_CHECK_MSG(violates(choices),
                  "MinimizeViolation requires a violating schedule");

  // Shortest violating prefix, defaults beyond it. Violation is not
  // monotone in the prefix length, so scan from the front and take the
  // first prefix that still violates (the full vector always does).
  for (size_t k = 0; k < choices.size(); ++k) {
    const std::vector<size_t> candidate(
        choices.begin(), choices.begin() + static_cast<ptrdiff_t>(k));
    if (violates(candidate)) {
      choices.resize(k);
      break;
    }
  }

  // Lower every choice as far as the violation allows.
  for (size_t i = 0; i < choices.size(); ++i) {
    while (choices[i] > 0) {
      std::vector<size_t> candidate = choices;
      --candidate[i];
      if (!violates(candidate)) break;
      choices = std::move(candidate);
    }
  }
  trim(choices);
  return choices;
}

bool CommuteAt(const ControlledScenario& scenario,
               const std::vector<size_t>& path, const EventLabel& a,
               const EventLabel& b, std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) {
      *why = StrFormat("%s [%s] and %s [%s] after %zu steps: %s",
                       LabelToString(a).c_str(), a.what,
                       LabelToString(b).c_str(), b.what, path.size(),
                       reason.c_str());
    }
    return false;
  };
  // The index of the ready event heading `label`'s channel, if its tag
  // is `label`'s: the internal channel carries crashes and arm-drops.
  const auto find = [](const std::vector<Scheduler::Candidate>& ready,
                       const EventLabel& label) -> std::optional<size_t> {
    for (size_t j = 0; j < ready.size(); ++j) {
      if (ChannelOf(ready[j].label) != ChannelOf(label)) continue;
      if (std::strcmp(ready[j].label.what, label.what) != 0) break;
      return j;
    }
    return std::nullopt;
  };
  std::array<Fp128, 2> end;
  for (size_t order = 0; order < 2; ++order) {
    const EventLabel& first = order == 0 ? a : b;
    const EventLabel& second = order == 0 ? b : a;
    SteppingScheduler scheduler(path);
    ControlledSystem system(scenario, &scheduler);
    SWEEP_CHECK_MSG(system.Run(static_cast<int64_t>(path.size())) ==
                        static_cast<int64_t>(path.size()),
                    "schedule prefix drained early");
    const std::vector<Scheduler::Candidate> ready = system.Ready();
    const std::optional<size_t> run_first = find(ready, first);
    const std::optional<size_t> at_node = find(ready, second);
    if (!run_first.has_value() || !at_node.has_value()) {
      return fail("not both ready at the node");
    }
    scheduler.SetNext(*run_first);
    system.Run(1);
    // The same event, by its sequence number, must still head its channel.
    const std::vector<Scheduler::Candidate> after = system.Ready();
    const std::optional<size_t> run_second = find(after, second);
    if (!run_second.has_value() ||
        after[*run_second].seq != ready[*at_node].seq) {
      return fail(StrFormat("%s is not enabled after %s",
                            LabelToString(second).c_str(),
                            LabelToString(first).c_str()));
    }
    scheduler.SetNext(*run_second);
    system.Run(1);
    system.HashState(&end[order]);
  }
  if (end[0] != end[1]) return fail("the two orders reach different states");
  return true;
}

}  // namespace sweepmv
