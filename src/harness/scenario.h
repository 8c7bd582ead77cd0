// One-call experiment runner.
//
// Builds the whole simulated system — sources (or ECA's single
// multi-relation source), FIFO network, warehouse running the chosen
// algorithm — injects a workload, runs the simulation to completion, and
// returns everything the benches and tests need: traffic statistics, the
// measured consistency level, staleness metrics, and algorithm-specific
// counters.

#ifndef SWEEPMV_HARNESS_SCENARIO_H_
#define SWEEPMV_HARNESS_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "consistency/checker.h"
#include "core/factory.h"
#include "sim/fault_model.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/session.h"
#include "storage/indexed_relation.h"
#include "workload/schema_gen.h"
#include "workload/update_gen.h"

namespace sweepmv {

// Optional robustness layer for a scenario: link faults, the reliability
// session toggle, source crash/restart schedule, and the warehouse's
// query-timeout defenses. Disabled by default — a plain scenario is the
// paper's pristine reliable-FIFO world.
struct FaultPlan {
  bool enabled = false;
  // Applied to every directed link (including warehouse->source).
  FaultModel faults;
  // Session layer on faulty links (off = raw faulty delivery; the
  // channel assumption of Section 2 is then genuinely violated).
  bool reliability = true;
  SessionOptions session;
  // Source crash/restart schedule, by relation index. Requires
  // `enabled`, the one-relation-per-site topology (relations_per_site ==
  // 1) and a multi-source algorithm.
  struct CrashEvent {
    int relation = 0;
    SimTime crash_at = 0;
    SimTime restart_at = 0;  // must be > crash_at
  };
  std::vector<CrashEvent> crashes;
  // Warehouse crash/restart schedule. Requires checkpoint_every > 0 (the
  // durable store recovery restores from) and reliability sessions: the
  // pristine network drops messages to a down site permanently, while the
  // session layer retransmits them once the warehouse is back.
  struct WarehouseCrashEvent {
    SimTime crash_at = 0;
    SimTime restart_at = 0;  // must be > crash_at
  };
  std::vector<WarehouseCrashEvent> warehouse_crashes;
  // Durability cadence: cut a fresh checkpoint once the update WAL holds
  // this many entries. 0 disables the durable store (and with it,
  // warehouse crashes).
  int checkpoint_every = 0;
  // Warehouse query re-issue (0 keeps timeouts off). With crashes in the
  // plan this should be > 0 or a sweep whose query died with the source
  // never terminates.
  SimTime query_timeout = 0;
  int query_retry_limit = 8;
  // Re-issue delays grow exponentially from query_timeout up to
  // query_timeout * query_backoff_cap (plus deterministic jitter).
  int query_backoff_cap = 16;
  // Instead of CHECK-failing when the run ends with a wedged warehouse
  // (expected when reliability is off and messages are genuinely lost),
  // report it via RunResult::completed.
  bool tolerate_failure = false;
};

struct ScenarioConfig {
  Algorithm algorithm = Algorithm::kSweep;
  ChainSpec chain;
  WorkloadSpec workload;
  LatencyModel latency = LatencyModel::Fixed(1000);
  WarehouseConfig warehouse;
  uint64_t network_seed = 99;
  // Topology: how many consecutive chain relations each source site
  // hosts (Section 2 allows "any number of base relations" per source).
  // 1 = the paper's conceptual one-relation-per-source model. Ignored for
  // ECA, which always uses one site for everything.
  int relations_per_site = 1;
  // Verify consistency by replay (skip for large throughput benches).
  bool check_consistency = true;
  // Storage engine: sources maintain the IndexCatalog's hash indexes and
  // answer sweep queries by probing them (src/storage/). Off = re-scan
  // the base relation per query; results are identical (the equivalence
  // property test proves it), only the cost differs.
  bool use_indexes = true;
  // Safety valve for runaway protocols (C-Strobe under heavy
  // interference): abort the run after this many simulator events.
  int64_t max_events = 50'000'000;
  // Fault injection (see FaultPlan).
  FaultPlan fault_plan;
};

struct RunResult {
  std::string algorithm_name;
  NetworkStats net;
  // False only under FaultPlan::tolerate_failure: the run drained with
  // the warehouse still waiting on messages that will never arrive.
  bool completed = true;
  int64_t updates_delivered = 0;
  int64_t installs = 0;
  ConsistencyReport consistency;
  Relation final_view;
  Relation expected_view;

  SimTime finish_time = 0;
  SimTime first_install_time = 0;  // 0 if nothing installed
  SimTime last_arrival_time = 0;
  double staleness_integral = 0.0;
  double mean_incorporation_delay = 0.0;
  // Arrival -> install delay percentiles (nearest-rank), in ticks.
  double staleness_p50 = 0.0;
  double staleness_p99 = 0.0;

  // Query+answer messages divided by delivered updates.
  double maintenance_msgs_per_update = 0.0;

  // Algorithm-specific counters (0 when not applicable).
  int64_t compensations = 0;         // SWEEP / Nested SWEEP
  int64_t nested_calls = 0;          // Nested SWEEP
  int64_t forced_deferrals = 0;      // Nested SWEEP
  int64_t batch_installs = 0;        // Strobe / ECA
  int64_t compensating_queries = 0;  // C-Strobe
  int64_t max_query_terms = 0;       // ECA
  int64_t total_query_terms = 0;     // ECA

  // Robustness counters (0 for pristine runs).
  int64_t duplicate_updates_ignored = 0;  // warehouse id-level dedup
  int64_t stale_answers_ignored = 0;      // late/duplicate query answers
  int64_t queries_reissued = 0;           // timeout-driven re-issues
  int64_t updates_replayed = 0;           // log replays by restarted sources
  // Warehouse crash-recovery counters (all 0 without warehouse crashes).
  int64_t warehouse_recoveries = 0;
  int64_t wal_updates_replayed = 0;       // WAL entries re-applied on recovery
  int64_t checkpoints_taken = 0;
  int64_t checkpoint_bytes_max = 0;       // largest durable image
  int64_t pre_epoch_answers_ignored = 0;  // stale-epoch answers discarded
  int64_t max_query_attempts = 0;         // most sends any one query needed
  // Growable dedup-state entries left at the warehouse after the run
  // (0 under FIFO update streams — the watermark dedup is fixed-size).
  int64_t dedup_state_entries = 0;

  // Storage-engine counters summed over every source site (all zero with
  // use_indexes off or for ECA's index-less single source).
  StorageStats storage;
};

// Runs the scenario built from generated schema + workload.
RunResult RunScenario(const ScenarioConfig& config);

// Runs a fully explicit scenario: caller-provided view, initial bases and
// transaction schedule (used by the paper's Figure 5 reproduction and by
// tests that need exact control over interleavings).
RunResult RunExplicitScenario(const ScenarioConfig& config,
                              const ViewDef& view,
                              const std::vector<Relation>& initial_bases,
                              const std::vector<ScheduledTxn>& txns);

}  // namespace sweepmv

#endif  // SWEEPMV_HARNESS_SCENARIO_H_
