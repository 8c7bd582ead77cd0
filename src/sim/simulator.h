// Deterministic discrete-event simulator.
//
// The paper's distributed system (n autonomous sources + warehouse over
// reliable FIFO channels) is reproduced as a single-threaded event-driven
// simulation: every send, delivery, and workload arrival is an event on a
// virtual clock. Determinism is total — ties in delivery time break by
// schedule order — so every experiment replays exactly from its seed.
//
// Two execution modes share the event vocabulary:
//   * time-ordered (default) — events run in (time, schedule-order), the
//     classic discrete-event loop every bench and scenario uses;
//   * controlled — a pluggable Scheduler picks the next event among the
//     *ready* set: per channel (one directed network link, one site's
//     transaction stream) events stay in order, but across channels the
//     scheduler may run any head it likes, regardless of timestamps. The
//     schedule-space explorer (src/verify/) drives this mode to enumerate
//     FIFO-respecting interleavings the wall clock would never produce.

#ifndef SWEEPMV_SIM_SIMULATOR_H_
#define SWEEPMV_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/state.h"
#include "common/undo.h"
#include "sim/time.h"

namespace sweepmv {

// What kind of event a scheduled closure represents. Only controlled mode
// cares: the kind defines the channel whose internal order is preserved.
enum class EventKind : int {
  // Harness machinery (timers, crash plans, unlabeled legacy events).
  // Conservatively ordered by (time, schedule order) on one shared
  // channel, and treated as dependent on everything by the explorer.
  kInternal = 0,
  // A source-local transaction at site `to`. Transactions of one site
  // form a channel (the source's serial execution order).
  kTxn = 1,
  // A message delivery on the directed link `from` -> `to`. Deliveries of
  // one link form a channel (the paper's reliable-FIFO assumption).
  kDelivery = 2,
};

struct EventLabel {
  EventKind kind = EventKind::kInternal;
  int from = -1;
  int to = -1;
  // Static human-readable tag for traces (e.g. the message class name).
  const char* what = "";

  // `what` compares by pointer: labels are built from string literals.
  bool operator==(const EventLabel&) const = default;
};

// Controlled-mode hook: picks which ready event runs next.
class Scheduler {
 public:
  struct Candidate {
    EventLabel label;
    SimTime when = 0;
    int64_t seq = 0;
  };

  virtual ~Scheduler() = default;

  // `ready` is non-empty and holds exactly the FIFO-respecting heads (one
  // per non-empty channel), in a deterministic channel order. Returns the
  // index of the event to execute.
  virtual size_t Pick(const std::vector<Candidate>& ready) = 0;
};

class Simulator {
  struct Event {
    SimTime when;
    int64_t seq;
    EventLabel label;
    // Content digest of what this event will do (message hash, txn hash,
    // …) for canonical state fingerprints; 0 = undigested, which only
    // free-running events may be (see PendingEvents).
    uint64_t digest = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` ticks from now (delay >= 0). The
  // digest overloads additionally attach a content hash of the event's
  // payload (see Event::digest).
  void Schedule(SimTime delay, std::function<void()> fn);
  void Schedule(SimTime delay, EventLabel label, std::function<void()> fn);
  void Schedule(SimTime delay, EventLabel label, uint64_t digest,
                std::function<void()> fn);

  // Schedules `fn` at absolute time `when` (when >= now()).
  void ScheduleAt(SimTime when, std::function<void()> fn);
  void ScheduleAt(SimTime when, EventLabel label, std::function<void()> fn);
  void ScheduleAt(SimTime when, EventLabel label, uint64_t digest,
                  std::function<void()> fn);

  // Switches to controlled mode. Must be called before anything is
  // scheduled; `scheduler` must outlive the simulator's runs. In
  // controlled mode the clock only moves forward (an event whose
  // timestamp is in the "past" relative to an already-executed later
  // event leaves the clock untouched).
  void SetScheduler(Scheduler* scheduler);
  bool controlled() const { return scheduler_ != nullptr; }

  // Controlled mode: the ready set Step() would offer the scheduler now
  // (empty when no events are pending).
  std::vector<Scheduler::Candidate> Ready() const;

  // Runs the next event — the earliest pending one in time-ordered mode,
  // the scheduler's pick in controlled mode. Returns false if none are
  // pending.
  bool Step();

  // Runs events until the queue drains or `max_events` have run (if
  // nonnegative). Returns the number of events executed.
  int64_t Run(int64_t max_events = -1);

  // Runs events with time <= `until`; the clock ends at `until` even if
  // the queue drained earlier. Returns the number of events executed.
  // Time-ordered mode only.
  int64_t RunUntil(SimTime until);

  size_t pending_events() const {
    return controlled() ? pending_.size() : queue_.size();
  }

  // Installs the undo log that every subsequent mutation entry point
  // value-captures into (first-touch-per-era; see common/undo.h). Null
  // detaches.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h), meaningful in controlled mode only.
  // Snapshots copy the clock, the sequence counter and every pending
  // event (std::function closures are copied; the site/network objects
  // they point into are restored alongside — see ControlledSystem). The
  // free-run queue is empty under a scheduler, and the scheduler and the
  // undo log are the explorer's wiring.
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("now_", self.now_);
    v.History("next_seq_", self.next_seq_);
    v.Fixed("queue_", self.queue_);
    v.Protocol("pending_", self.pending_, PendingEvents{});
    v.Fixed("scheduler_", self.scheduler_);
    v.Fixed("undo_", self.undo_);
  }

 private:
  // Fingerprints the pending events. Exact mode (the oracle dump) orders
  // them by seq and includes absolute sequence numbers; canonical mode
  // (the dedup key) groups them per FIFO channel with within-channel
  // ordinals, so two interleavings reaching the same logical state digest
  // identically. Every controlled event carries a nonzero content digest;
  // a zero one aborts.
  struct PendingEvents {
    static void Hash(StateHasher& h, const char* name,
                     const std::vector<Event>& events, bool exact);
  };

  // Controlled mode: picks the ready set's indices into `pending_`
  // (parallel to the candidate list Ready() builds).
  std::vector<size_t> ReadyIndices() const;
  bool StepControlled();
  // Records the state list into the attached undo log. Called at the top
  // of every controlled-mode mutation entry point.
  void CaptureUndo();

  SimTime now_ = 0;
  int64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Controlled-mode store (unsorted; the ready-set computation orders it).
  std::vector<Event> pending_;
  Scheduler* scheduler_ = nullptr;
  UndoLog* undo_ = nullptr;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SIM_SIMULATOR_H_
