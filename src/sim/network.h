// The simulated network: site registry, FIFO links, traffic statistics,
// fault injection, and the reliability session layer.
//
// Three delivery regimes per directed link:
//   * pristine (no FaultModel attached) — the paper's Section 2
//     assumption, byte-for-byte the original behaviour: reliable FIFO
//     delivery with sampled latency;
//   * faulty + reliability enabled — application messages are wrapped in
//     SessionDatagrams; the session layer (sim/session.h) restores
//     exactly-once FIFO delivery via seq/ack/retransmission, so sites
//     still observe the reliable-FIFO abstraction;
//   * faulty + reliability disabled — raw faulty delivery (drops lost
//     forever, duplicates delivered twice, jitter may reorder), exposing
//     what the protocols do when the paper's channel assumption is
//     violated.
// Site crash/restart is modeled here too: a crashed site neither sends
// nor receives, and loses its session state (its durable state is the
// site's own concern — see DataSource::Restart).

#ifndef SWEEPMV_SIM_NETWORK_H_
#define SWEEPMV_SIM_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/state.h"
#include "common/undo.h"
#include "sim/channel.h"
#include "sim/fault_model.h"
#include "sim/latency.h"
#include "sim/message.h"
#include "sim/session.h"
#include "sim/simulator.h"
#include "sim/site.h"

namespace sweepmv {

// Per-class traffic counters. The benches read these to report message
// complexity (Table 1, experiments E1-E3).
struct NetworkStats {
  struct ClassStats {
    int64_t messages = 0;
    int64_t payload_tuples = 0;

    bool operator==(const ClassStats&) const = default;
  };
  std::array<ClassStats, static_cast<size_t>(MessageClass::kNumClasses)>
      by_class;

  // Fault-injection and reliability-layer accounting; all zero on
  // pristine networks.
  struct ReliabilityStats {
    int64_t drops_injected = 0;    // transmissions lost to drop_prob
    int64_t partition_drops = 0;   // transmissions lost to a partition
    int64_t dups_injected = 0;     // wire duplicates created
    int64_t crash_drops = 0;       // arrived at (or sent by) a crashed site
    int64_t retransmissions = 0;   // datagrams re-sent by the session layer
    int64_t dups_suppressed = 0;   // duplicate datagrams discarded on receive
    int64_t acks_sent = 0;         // pure-ack datagrams
    int64_t messages_abandoned = 0;  // unacked payloads past the retry budget

    bool operator==(const ReliabilityStats&) const = default;
  } reliability;

  int64_t TotalMessages() const;
  int64_t TotalPayload() const;
  const ClassStats& Of(MessageClass c) const {
    return by_class[static_cast<size_t>(c)];
  }

  std::string ToDisplayString() const;

  bool operator==(const NetworkStats&) const = default;
};

// Fingerprint leaf for the state lists (common/state.h): every counter.
void HashLeaf(StateHasher& h, const char* tag, const NetworkStats& stats);

// One observed transmission, reported to the network tap at send time
// (the arrival instant is already determined then — delivery is
// deterministic). On faulty links every scheduled transmission (including
// retransmissions, duplicates and acks) is tapped; dropped transmissions
// are not.
struct TapEvent {
  SimTime send_time = 0;
  SimTime arrival_time = 0;
  int from = -1;
  int to = -1;
  // Borrowed view of the in-flight message; valid only for the duration
  // of the tap callback.
  const Message* message = nullptr;
};

class Network {
 public:
  // All links share `latency` unless overridden per-link; `seed` drives
  // the jitter sampling deterministically (and, independently, the fault
  // sampling).
  Network(Simulator* sim, LatencyModel latency, uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a site under `id`. The site must outlive the network runs.
  void RegisterSite(int id, Site* site);

  // Sends `msg` from site `from` to site `to`: samples a FIFO-respecting
  // arrival time and schedules the delivery. Counts traffic. On links
  // with a FaultModel, routes through the fault/session machinery.
  void Send(int from, int to, Message msg);

  // Overrides the latency model of the directed link from->to.
  void SetLinkLatency(int from, int to, LatencyModel latency);

  // --- Fault injection & reliability -----------------------------------

  // Attaches `model` to every link, existing and future (per-link
  // overrides via SetLinkFaults win). Marks those links "not assumed
  // reliable".
  void SetDefaultFaults(const FaultModel& model);
  // Attaches `model` to the directed link from->to only.
  void SetLinkFaults(int from, int to, const FaultModel& model);

  // Turns the session layer on/off for faulty links (default on). With it
  // off, raw faulty delivery reaches the sites.
  void EnableReliability(bool on) { reliability_ = on; }
  bool reliability_enabled() const { return reliability_; }

  // Session-layer tuning; applies to sessions created afterwards.
  void SetSessionOptions(const SessionOptions& opts) {
    session_options_ = opts;
  }

  // Site `id` crashes: it no longer sends or receives, in-flight
  // deliveries to it are lost, and its retransmission timers stop. Its
  // session peers keep their own state.
  void CrashSite(int id);
  // The site returns under a new incarnation: its outbound sessions
  // restart from sequence zero with a bumped epoch (receivers detect the
  // epoch change and resync), and its inbound receiver state is blank
  // (healed by the base_seq rule — see sim/session.h).
  void RestartSite(int id);
  bool IsCrashed(int id) const { return crashed_.count(id) != 0; }

  // --- Controlled fault choice points -----------------------------------

  // Arms one silent drop: the next query-class message (request or
  // answer) handed to Send is discarded instead of scheduled. This lets
  // the schedule-space explorer make message loss an explorable choice
  // point on pristine links, without attaching a FaultModel (which would
  // break snapshotting). Query traffic only: the warehouse's timeout
  // re-issue heals a lost query or answer, while a lost update
  // notification is unrecoverable without the session layer.
  void ArmControlledDrop();
  int64_t controlled_drops_armed() const { return controlled_drops_armed_; }

  // Eagerly creates every directed link among `site_ids`. The controlled
  // system calls this at construction so LinkFor's lazy rng_.Fork() never
  // fires inside an explored step — link creation would otherwise be a
  // hidden first-send write to rng_ that the static effect table does not
  // (and should not) charge to the sending handler.
  void PrecreateLinks(const std::vector<int>& site_ids);

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  // Observer invoked for every scheduled transmission (tracing /
  // visualization).
  using Tap = std::function<void(const TapEvent&)>;
  void SetTap(Tap tap) { tap_ = std::move(tap); }

  Simulator* simulator() { return sim_; }

  // True while no link carries a fault model or live session state — the
  // schedule-space explorer's regime (controlled runs are pristine by
  // construction), and the only one the state list below captures whole.
  bool pristine() const;

  // Installs the undo log Send/ArmControlledDrop capture into (see
  // common/undo.h). Null detaches. Pristine links only.
  void AttachUndo(UndoLog* undo) { undo_ = undo; }

  // The state list (common/state.h), pristine links only. Traffic
  // counters and per-link channel state are order-independent facts
  // about the set of sends performed, so the fingerprint takes them
  // as-is in both modes.
  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Fixed("sim_", self.sim_);
    v.Fixed("default_latency_", self.default_latency_);
    v.Protocol("rng_", self.rng_);
    v.Protocol("fault_root_", self.fault_root_);
    v.Fixed("default_faults_", self.default_faults_);
    v.Fixed("reliability_", self.reliability_);
    v.Fixed("session_options_", self.session_options_);
    v.Fixed("sites_", self.sites_);
    v.Fixed("crashed_", self.crashed_);
    v.Protocol("links_", self.links_, LinkChannels{});
    v.Protocol("stats_", self.stats_);
    v.Protocol("controlled_drops_armed_", self.controlled_drops_armed_);
    v.Fixed("tap_", self.tap_);
    v.Fixed("undo_", self.undo_);
  }

 private:
  // Everything the network tracks for one directed link.
  struct LinkState {
    LinkState(Channel channel_in, Rng fault_rng_in)
        : channel(std::move(channel_in)), fault_rng(fault_rng_in) {}
    Channel channel;
    std::optional<FaultModel> faults;
    // True when SetLinkFaults pinned this link's model explicitly, so a
    // later SetDefaultFaults does not overwrite it.
    bool explicit_faults = false;
    Rng fault_rng;
    // Sender session state for traffic flowing from .first to .second of
    // the link key; receiver state for the same direction (owned by the
    // destination site, conceptually).
    SessionSender sender;
    SessionReceiver receiver;
    bool session_configured = false;
    bool timer_armed = false;
    int64_t timer_gen = 0;
  };

  using Links = std::map<std::pair<int, int>, LinkState>;

  // The links' channel state (FIFO clamp, message counter, jitter RNG) is
  // all a pristine link holds. Restore and undo erase links created after
  // the save point, so a replayed first send re-forks the same per-link
  // RNG from the restored roots; the undo probe attributes a link's
  // changes to its sending site.
  struct LinkChannels {
    using Channels = std::map<std::pair<int, int>, Channel>;
    static Channels Save(const Links& links);
    static void Restore(Links& links, const Channels& saved);
    static void Capture(UndoLog& undo, Links& links, EffectAtom atom);
    static bool Hash(StateHasher& h, const char* name, const Links& links,
                     bool exact);
  };

  LinkState& LinkFor(int from, int to);
  // Records the state list into the attached undo log. Called at the top
  // of every controlled-mode mutation entry point.
  void CaptureUndo();
  void ConfigureSessionIfNeeded(LinkState& link);
  SessionOptions ResolvedSessionOptions(const LinkState& link) const;

  // Legacy pristine path: reliable FIFO, moves the payload.
  void SendDirect(LinkState& link, int from, int to, Message msg);
  // Applies the link's fault model and schedules 0..2 deliveries.
  void TransmitFaulty(LinkState& link, int from, int to,
                      std::shared_ptr<const Message> msg);
  // Wraps seq/payload in a datagram and transmits it over the faulty wire.
  void TransmitDatagram(LinkState& link, int from, int to, int64_t seq,
                        std::shared_ptr<const Message> payload);
  void ScheduleFaultyDelivery(LinkState& link, int from, int to,
                              std::shared_ptr<const Message> msg,
                              SimTime extra_delay);
  // Delivery instant: unwraps datagrams, runs the session receiver, hands
  // application messages to the destination site.
  void DeliverNow(int from, int to, std::shared_ptr<const Message> msg);
  void HandleDatagram(int from, int to, const SessionDatagram& dgram);
  void SendAck(int from, int to, int64_t ack_epoch, int64_t cum_ack);
  void ArmRetransmitTimer(LinkState& link, int from, int to);
  void OnRetransmitTimer(int from, int to, int64_t gen);

  Simulator* sim_;
  LatencyModel default_latency_;
  Rng rng_;
  // Independent root so attaching fault models never perturbs the latency
  // streams of existing runs.
  Rng fault_root_;
  std::optional<FaultModel> default_faults_;
  bool reliability_ = true;
  SessionOptions session_options_;
  std::map<int, Site*> sites_;
  // Crash injection is fault machinery controlled runs never drive.
  std::set<int> crashed_;
  Links links_;
  NetworkStats stats_;
  // Pending one-shot drops armed by ArmControlledDrop.
  int64_t controlled_drops_armed_ = 0;
  Tap tap_;
  UndoLog* undo_ = nullptr;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SIM_NETWORK_H_
