// Controlled execution of one maintenance scenario under a pluggable
// scheduler.
//
// Mirrors the harness wiring (sources or ECA's single multi-relation
// source, pristine FIFO network, warehouse running the chosen algorithm)
// but attaches a Scheduler to the simulator before anything is scheduled,
// so the caller — the schedule-space explorer — decides the interleaving
// of transactions and message deliveries instead of the virtual clock.
// Every transaction is scheduled at t=0: the *schedule*, not timestamps,
// determines when a source executes it relative to in-flight queries.

#ifndef SWEEPMV_VERIFY_CONTROLLED_RUN_H_
#define SWEEPMV_VERIFY_CONTROLLED_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/state.h"
#include "common/undo.h"
#include "consistency/checker.h"
#include "core/factory.h"
#include "core/warehouse.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"
#include "source/eca_source.h"
#include "source/update.h"
#include "verify/schedule.h"

namespace sweepmv {

// One source-local transaction. Transactions of the same relation execute
// in list order (the source's serial schedule); everything else is up to
// the scheduler.
struct ControlledTxn {
  int relation = 0;
  std::vector<UpdateOp> ops;
};

struct ControlledScenario {
  Algorithm algorithm = Algorithm::kSweep;
  ViewDef view;
  std::vector<Relation> initial_bases;
  std::vector<ControlledTxn> txns;
  WarehouseConfig warehouse;
  SimTime latency = 1000;
  // Fault choice points, scheduled at t=0 as internal events so the
  // explorer places them at every schedule position. Each crash invokes
  // Warehouse::CrashAndRecover (requires warehouse.base.checkpoint_every
  // > 0); each drop arms one silent query-class message loss (pair with
  // warehouse.base.query_timeout > 0 or the run wedges).
  int warehouse_crashes = 0;
  int max_message_drops = 0;
  // Additional warehouses materializing the same view over the same
  // sources (multi-view deployment: every source ships each update to all
  // registered warehouses; each warehouse maintains its view with its own
  // algorithm). Crash choice points target the primary warehouse only.
  // Incompatible with single-source (ECA-family) primaries.
  std::vector<Algorithm> extra_warehouses = {};
};

// Records every pick; replays a choice vector, continuing with the
// deterministic default (index 0) past its end. Out-of-range choices
// clamp to the last candidate so any vector is a valid schedule (the
// counterexample minimizer relies on this).
class ReplayScheduler : public Scheduler {
 public:
  ReplayScheduler() = default;
  explicit ReplayScheduler(std::vector<size_t> choices)
      : choices_(std::move(choices)) {}

  size_t Pick(const std::vector<Candidate>& ready) override;

  const ScheduleTrace& trace() const { return trace_; }

 private:
  std::vector<size_t> choices_;
  size_t cursor_ = 0;
  ScheduleTrace trace_;
};

// Uniform random pick at every step — the seeded random-walk mode for
// scenarios too large to enumerate.
class RandomScheduler : public Scheduler {
 public:
  explicit RandomScheduler(uint64_t seed) : rng_(seed) {}

  size_t Pick(const std::vector<Candidate>& ready) override;

  const ScheduleTrace& trace() const { return trace_; }

 private:
  Rng rng_;
  ScheduleTrace trace_;
};

// The fully wired system under a controlled simulator. Sources sit at
// site ids 1..n, the warehouse at 0.
class ControlledSystem {
 public:
  ControlledSystem(const ControlledScenario& scenario,
                   Scheduler* scheduler);

  ControlledSystem(const ControlledSystem&) = delete;
  ControlledSystem& operator=(const ControlledSystem&) = delete;

  // Runs up to `max_steps` scheduler picks; returns the number executed
  // (fewer only when the event set drained).
  int64_t Run(int64_t max_steps);

  // The ready set the scheduler would be offered next (empty = drained).
  std::vector<Scheduler::Candidate> Ready() const {
    return sim_.Ready();
  }

  bool Drained() const { return sim_.pending_events() == 0; }
  // All warehouses idle (empty queue, no in-flight maintenance).
  bool WarehouseIdle() const;

  // Classifies the finished run against the consistency lattice — the
  // worst report over all warehouses. Call only after the run drained.
  ConsistencyReport Check() const;

  const Warehouse& warehouse() const { return *warehouses_.front(); }
  const Warehouse& warehouse(size_t i) const { return *warehouses_[i]; }
  size_t num_warehouses() const { return warehouses_.size(); }
  const ViewDef& view_def() const { return view_; }
  std::vector<const StateLog*> SourceLogs() const;

  // --- Undo log + fingerprint (schedule-space explorer) -----------------

  // Installs `undo` into every component; from then on each controlled
  // step's mutations are recorded and the explorer can rewind by popping
  // entries to a watermark instead of restoring a full snapshot. Null
  // detaches.
  void AttachUndo(UndoLog* undo);

  // Canonical 128-bit fingerprint of the live system: warehouse views and
  // algorithm state, durable stores, source relations and logs, network
  // channels, and the in-flight message set keyed per channel (content
  // digests, not sequence numbers). Built from sorted/keyed iteration so
  // the same logical state always hashes identically, whichever schedule
  // reached it. Returns false — and the explorer must not dedup on this
  // state — when a pending event carries no content digest.
  bool HashState(Fp128* fp) const;

  // Exact-mode, human-readable serialization of the same state (absolute
  // event sequence numbers and clock included): the byte string the undo
  // round-trip oracle compares against SaveState/RestoreState.
  std::string CanonicalDebugDump() const;

  // --- Snapshot/restore (prefix-sharing exploration) --------------------
  //
  // Captures every piece of mutable state in the closed system: the
  // simulator's pending-event set and clock, the network's channels and
  // RNG forks, the update-id generator, each source, and the warehouse
  // (including its algorithm-specific half) — everything the state list
  // below reaches. Restoring rewinds *this* system to the save point in
  // place — the wired sites and their closures stay valid because they
  // only capture pointers to objects this system owns. The explorer uses
  // this to backtrack to a decision point without re-constructing the
  // system and replaying the prefix.
  class SavedState {
   public:
    SavedState() = default;

   private:
    friend class ControlledSystem;
    StateSnapshot members;
  };
  SavedState SaveState() const;
  void RestoreState(const SavedState& state);

  // The state list (common/state.h): the components, each of which lists
  // its own members. The view definition and the initial bases are the
  // scenario's configuration; the sources hold their live relations.
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("view_", self.view_);
    v.Fixed("bases_", self.bases_);
    v.Protocol("sim_", self.sim_);
    v.Protocol("network_", self.network_);
    v.Protocol("ids_", self.ids_);
    v.Protocol("sources_", self.sources_);
    v.Protocol("eca_source_", self.eca_source_);
    v.Protocol("warehouses_", self.warehouses_);
  }

 private:
  ViewDef view_;
  std::vector<Relation> bases_;
  Simulator sim_;
  Network network_;
  UpdateIdGenerator ids_;
  std::vector<std::unique_ptr<DataSource>> sources_;
  std::unique_ptr<EcaSource> eca_source_;
  // warehouses_[0] is the primary (site 0); extras sit past the sources.
  std::vector<std::unique_ptr<Warehouse>> warehouses_;
};

// Outcome of one complete controlled run.
struct ControlledOutcome {
  ConsistencyReport report;
  ScheduleTrace trace;
  int64_t steps = 0;
  // The run drained within the step budget with an idle warehouse. A
  // false here is itself a protocol failure (a wedged or runaway
  // schedule) and classifies as inconsistent.
  bool completed = false;
  size_t installs = 0;
  std::string final_view;

  // Canonical serialization of everything schedule-determined — the
  // string the byte-identical-replay test compares.
  std::string Fingerprint() const;
};

// Replays `choices` (defaults past the end) and classifies the run.
ControlledOutcome RunWithChoices(const ControlledScenario& scenario,
                                 const std::vector<size_t>& choices,
                                 int64_t max_steps);

}  // namespace sweepmv

#endif  // SWEEPMV_VERIFY_CONTROLLED_RUN_H_
