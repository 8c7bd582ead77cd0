#include "sim/network.h"

#include "common/check.h"
#include "common/log.h"
#include "common/str.h"

namespace sweepmv {

namespace {

// Decorrelates the fault stream from the latency stream so attaching a
// FaultModel never perturbs arrival times sampled elsewhere.
constexpr uint64_t kFaultSeedSalt = 0xc2b2ae3d27d4eb4fULL;

}  // namespace

int64_t NetworkStats::TotalMessages() const {
  int64_t total = 0;
  for (const auto& c : by_class) total += c.messages;
  return total;
}

int64_t NetworkStats::TotalPayload() const {
  int64_t total = 0;
  for (const auto& c : by_class) total += c.payload_tuples;
  return total;
}

std::string NetworkStats::ToDisplayString() const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < by_class.size(); ++i) {
    parts.push_back(StrFormat(
        "%s: %lld msgs / %lld tuples",
        MessageClassName(static_cast<MessageClass>(i)),
        static_cast<long long>(by_class[i].messages),
        static_cast<long long>(by_class[i].payload_tuples)));
  }
  const ReliabilityStats& r = reliability;
  if (r.drops_injected + r.partition_drops + r.dups_injected +
          r.crash_drops + r.retransmissions + r.dups_suppressed +
          r.acks_sent + r.messages_abandoned >
      0) {
    parts.push_back(StrFormat(
        "faults: %lld dropped / %lld partitioned / %lld duplicated / "
        "%lld at-crashed",
        static_cast<long long>(r.drops_injected),
        static_cast<long long>(r.partition_drops),
        static_cast<long long>(r.dups_injected),
        static_cast<long long>(r.crash_drops)));
    parts.push_back(StrFormat(
        "session: %lld retransmits / %lld dups suppressed / %lld acks / "
        "%lld abandoned",
        static_cast<long long>(r.retransmissions),
        static_cast<long long>(r.dups_suppressed),
        static_cast<long long>(r.acks_sent),
        static_cast<long long>(r.messages_abandoned)));
  }
  return Join(parts, ", ");
}

Network::Network(Simulator* sim, LatencyModel latency, uint64_t seed)
    : sim_(sim),
      default_latency_(latency),
      rng_(seed),
      fault_root_(seed ^ kFaultSeedSalt) {
  SWEEP_CHECK(sim != nullptr);
}

void Network::RegisterSite(int id, Site* site) {
  SWEEP_CHECK(site != nullptr);
  auto [it, inserted] = sites_.emplace(id, site);
  SWEEP_CHECK_MSG(inserted, "site id already registered");
  (void)it;
}

Network::LinkState& Network::LinkFor(int from, int to) {
  auto key = std::make_pair(from, to);
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, LinkState(Channel(default_latency_, rng_.Fork()),
                                     fault_root_.Fork()))
             .first;
    if (default_faults_.has_value()) {
      it->second.faults = default_faults_;
    }
  }
  return it->second;
}

SessionOptions Network::ResolvedSessionOptions(const LinkState& link) const {
  SessionOptions opts = session_options_;
  if (opts.rto_initial <= 0) {
    const LatencyModel& lat = link.channel.latency();
    opts.rto_initial = 4 * lat.base + 2 * lat.jitter + 500;
  }
  if (opts.rto_max <= 0) {
    opts.rto_max = 16 * opts.rto_initial;
  }
  return opts;
}

void Network::ConfigureSessionIfNeeded(LinkState& link) {
  if (link.session_configured) return;
  link.sender.Configure(ResolvedSessionOptions(link));
  link.session_configured = true;
}

void Network::ArmControlledDrop() {
  CaptureUndo();
  ++controlled_drops_armed_;
}

void Network::PrecreateLinks(const std::vector<int>& site_ids) {
  for (int from : site_ids) {
    for (int to : site_ids) {
      if (from != to) LinkFor(from, to);
    }
  }
}

void HashLeaf(StateHasher& h, const char* tag, const NetworkStats& stats) {
  for (const auto& cls : stats.by_class) {
    h.I64(tag, cls.messages);
    h.I64(tag, cls.payload_tuples);
  }
  const NetworkStats::ReliabilityStats& r = stats.reliability;
  for (int64_t counter :
       {r.drops_injected, r.partition_drops, r.dups_injected, r.crash_drops,
        r.retransmissions, r.dups_suppressed, r.acks_sent,
        r.messages_abandoned}) {
    h.I64(tag, counter);
  }
}

void Network::CaptureUndo() {
  if (undo_ == nullptr) return;
  CaptureState(*undo_, *this);
}

bool Network::pristine() const {
  if (default_faults_.has_value()) return false;
  for (const auto& [key, link] : links_) {
    if (link.faults.has_value() || link.session_configured) return false;
  }
  return true;
}

Network::LinkChannels::Channels Network::LinkChannels::Save(
    const Links& links) {
  Channels channels;
  for (const auto& [key, link] : links) channels.emplace(key, link.channel);
  return channels;
}

void Network::LinkChannels::Restore(Links& links, const Channels& saved) {
  for (auto it = links.begin(); it != links.end();) {
    auto channel = saved.find(it->first);
    if (channel == saved.end()) {
      it = links.erase(it);
    } else {
      it->second.channel = channel->second;
      ++it;
    }
  }
}

void Network::LinkChannels::Capture(UndoLog& undo, Links& links) {
  undo.Capture(&links,
               [&links, saved = Save(links)]() { Restore(links, saved); });
}

void Network::LinkChannels::Hash(StateHasher& h, const char* name,
                                 const Links& links, bool) {
  h.U64(name, links.size());
  for (const auto& [key, link] : links) {
    h.I64(name, key.first);
    h.I64(name, key.second);
    h.I64(name, link.channel.messages_sent());
    h.I64(name, link.channel.last_arrival());
    h.U64(name, link.channel.rng_state());
  }
}

void Network::Send(int from, int to, Message msg) {
  auto site_it = sites_.find(to);
  SWEEP_CHECK_MSG(site_it != sites_.end(), "unknown destination site");
  CaptureUndo();

  if (crashed_.count(from) != 0) {
    // A crashed site cannot transmit (defense in depth; crashed sites
    // should not be executing at all).
    ++stats_.reliability.crash_drops;
    return;
  }

  int64_t payload = PayloadTuples(msg);
  const MessageClass msg_class = ClassOf(msg);
  auto& cls = stats_.by_class[static_cast<size_t>(msg_class)];
  ++cls.messages;
  cls.payload_tuples += payload;

  // Controlled one-shot loss: the message was sent (counted above) but
  // never arrives.
  if (controlled_drops_armed_ > 0 &&
      (msg_class == MessageClass::kQueryRequest ||
       msg_class == MessageClass::kQueryAnswer)) {
    --controlled_drops_armed_;
    ++stats_.reliability.drops_injected;
    return;
  }

  LinkState& link = LinkFor(from, to);
  if (!link.faults.has_value()) {
    SendDirect(link, from, to, std::move(msg));
    return;
  }
  auto boxed = std::make_shared<const Message>(std::move(msg));
  if (reliability_) {
    ConfigureSessionIfNeeded(link);
    int64_t seq = link.sender.Enqueue(boxed);
    TransmitDatagram(link, from, to, seq, std::move(boxed));
    ArmRetransmitTimer(link, from, to);
  } else {
    TransmitFaulty(link, from, to, std::move(boxed));
  }
}

void Network::SendDirect(LinkState& link, int from, int to, Message msg) {
  SimTime arrival =
      link.channel.NextArrival(sim_->now(), PayloadTuples(msg));
  if (tap_) {
    TapEvent event;
    event.send_time = sim_->now();
    event.arrival_time = arrival;
    event.from = from;
    event.to = to;
    event.message = &msg;
    tap_(event);
  }
  // The shared_ptr makes the lambda copyable (std::function requires it)
  // without copying the payload relation on every move of the closure.
  Site* dest = sites_.at(to);
  EventLabel label{EventKind::kDelivery, from, to,
                   MessageClassName(ClassOf(msg))};
  // Content digest so the explorer's canonical fingerprint can identify
  // this pending delivery independent of schedule history. Only worth
  // computing in controlled mode (time-ordered benches never hash state).
  uint64_t digest = sim_->controlled() ? MessageDigest(msg) : 0;
  auto boxed = std::make_shared<Message>(std::move(msg));
  sim_->ScheduleAt(arrival, label, digest, [this, dest, from, to, boxed]() {
    if (crashed_.count(to) != 0) {
      ++stats_.reliability.crash_drops;
      return;
    }
    // Controlled mode: the explorer may snapshot this event and execute
    // the closure once per explored branch, so the shared payload must
    // stay intact — deliver a copy. Time-ordered mode runs each event
    // exactly once and keeps the move.
    if (sim_->controlled()) {
      dest->OnMessage(from, *boxed);
    } else {
      dest->OnMessage(from, std::move(*boxed));
    }
  });
}

void Network::TransmitFaulty(LinkState& link, int from, int to,
                             std::shared_ptr<const Message> msg) {
  FaultDecision d =
      SampleFaults(*link.faults, link.fault_rng, sim_->now());
  if (d.drop) {
    if (d.partitioned) {
      ++stats_.reliability.partition_drops;
    } else {
      ++stats_.reliability.drops_injected;
    }
    return;
  }
  ScheduleFaultyDelivery(link, from, to, msg, d.extra_delay);
  if (d.duplicate) {
    ++stats_.reliability.dups_injected;
    ScheduleFaultyDelivery(link, from, to, std::move(msg), d.extra_delay);
  }
}

void Network::ScheduleFaultyDelivery(LinkState& link, int from, int to,
                                     std::shared_ptr<const Message> msg,
                                     SimTime extra_delay) {
  int64_t payload = PayloadTuples(*msg);
  SimTime depart = sim_->now() + extra_delay;
  SimTime arrival =
      link.faults->preserve_fifo
          ? link.channel.NextArrival(depart, payload)
          // sweeplint:allow unordered-arrival fault injection deliberately
          // reorders this link; consumers must opt out of FIFO dedup
          // (Options::fifo_update_streams=false) on such runs.
          : link.channel.UnorderedArrival(depart, payload);
  if (tap_) {
    TapEvent event;
    event.send_time = sim_->now();
    event.arrival_time = arrival;
    event.from = from;
    event.to = to;
    event.message = msg.get();
    tap_(event);
  }
  EventLabel label{EventKind::kDelivery, from, to,
                   MessageClassName(ClassOf(*msg))};
  sim_->ScheduleAt(arrival, label, [this, from, to, msg = std::move(msg)]() {
    DeliverNow(from, to, msg);
  });
}

void Network::DeliverNow(int from, int to,
                         std::shared_ptr<const Message> msg) {
  if (crashed_.count(to) != 0) {
    ++stats_.reliability.crash_drops;
    return;
  }
  if (const auto* dgram = std::get_if<SessionDatagram>(msg.get())) {
    HandleDatagram(from, to, *dgram);
    return;
  }
  sites_.at(to)->OnMessage(from, Message(*msg));
}

void Network::HandleDatagram(int from, int to,
                             const SessionDatagram& dgram) {
  if (dgram.seq < 0) {
    // Pure ack: it acknowledges traffic flowing to->from, so it belongs
    // to the sender state of the reverse link.
    LinkState& reverse = LinkFor(to, from);
    reverse.sender.OnAck(dgram.epoch, dgram.cum_ack);
    return;
  }
  LinkState& link = LinkFor(from, to);
  SessionReceiver::Accepted acc = link.receiver.OnData(
      dgram.epoch, dgram.seq, dgram.base_seq, dgram.payload);
  if (acc.stale_epoch) {
    ++stats_.reliability.dups_suppressed;
    return;
  }
  if (acc.duplicate) ++stats_.reliability.dups_suppressed;
  Site* dest = sites_.at(to);
  for (const auto& payload : acc.deliver) {
    dest->OnMessage(from, Message(*payload));
  }
  SendAck(to, from, acc.ack_epoch, acc.cum_ack);
}

void Network::SendAck(int from, int to, int64_t ack_epoch,
                      int64_t cum_ack) {
  ++stats_.reliability.acks_sent;
  ++stats_
        .by_class[static_cast<size_t>(MessageClass::kTransportControl)]
        .messages;
  auto ack = std::make_shared<const Message>(
      SessionDatagram{/*seq=*/-1, /*base_seq=*/0, cum_ack, ack_epoch,
                      /*payload=*/nullptr});
  LinkState& link = LinkFor(from, to);
  if (link.faults.has_value()) {
    TransmitFaulty(link, from, to, std::move(ack));
    return;
  }
  // Pristine reverse link: reliable delivery of the ack.
  SimTime arrival = link.channel.NextArrival(sim_->now(), 0);
  if (tap_) {
    TapEvent event;
    event.send_time = sim_->now();
    event.arrival_time = arrival;
    event.from = from;
    event.to = to;
    event.message = ack.get();
    tap_(event);
  }
  EventLabel label{EventKind::kDelivery, from, to,
                   MessageClassName(MessageClass::kTransportControl)};
  sim_->ScheduleAt(arrival, label, [this, from, to, ack]() {
    DeliverNow(from, to, ack);
  });
}

void Network::TransmitDatagram(LinkState& link, int from, int to,
                               int64_t seq,
                               std::shared_ptr<const Message> payload) {
  auto dgram = std::make_shared<const Message>(
      SessionDatagram{seq, link.sender.base_seq(), /*cum_ack=*/-1,
                      link.sender.epoch(), std::move(payload)});
  TransmitFaulty(link, from, to, std::move(dgram));
}

void Network::ArmRetransmitTimer(LinkState& link, int from, int to) {
  if (link.timer_armed) return;
  link.timer_armed = true;
  int64_t gen = ++link.timer_gen;
  // sweeplint:allow unlabeled-event session-internal retransmit timer, not
  // a protocol message; controlled runs configure sessions off, so the
  // explorer never sees this event
  sim_->Schedule(link.sender.rto(), [this, from, to, gen]() {
    OnRetransmitTimer(from, to, gen);
  });
}

void Network::OnRetransmitTimer(int from, int to, int64_t gen) {
  LinkState& link = LinkFor(from, to);
  if (gen != link.timer_gen) return;  // superseded (crash/restart)
  if (!link.sender.HasUnacked() || crashed_.count(from) != 0) {
    link.timer_armed = false;
    return;
  }
  SessionSender::TimeoutAction action = link.sender.OnTimeout();
  if (action.abandoned) {
    stats_.reliability.messages_abandoned += action.abandoned_count;
    SWEEP_LOG(Info) << "session " << from << "->" << to << " abandoned "
                    << action.abandoned_count
                    << " unacked messages (retry budget exhausted)";
    link.timer_armed = false;
    return;
  }
  for (const SessionSender::Retransmission& r : action.resend) {
    ++stats_.reliability.retransmissions;
    TransmitDatagram(link, from, to, r.seq, r.payload);
  }
  // sweeplint:allow unlabeled-event re-arm of the session retransmit
  // timer; same harness-internal event as in ArmRetransmitTimer above
  sim_->Schedule(link.sender.rto(), [this, from, to, gen]() {
    OnRetransmitTimer(from, to, gen);
  });
}

void Network::SetLinkLatency(int from, int to, LatencyModel latency) {
  LinkFor(from, to).channel.set_latency(latency);
}

void Network::SetDefaultFaults(const FaultModel& model) {
  default_faults_ = model;
  for (auto& [key, link] : links_) {
    if (!link.explicit_faults) link.faults = model;
  }
}

void Network::SetLinkFaults(int from, int to, const FaultModel& model) {
  LinkState& link = LinkFor(from, to);
  link.faults = model;
  link.explicit_faults = true;
}

void Network::CrashSite(int id) {
  SWEEP_CHECK_MSG(crashed_.insert(id).second, "site is already crashed");
  for (auto& [key, link] : links_) {
    if (key.first == id) {
      // The site's outbound retransmission machinery dies with it.
      ++link.timer_gen;
      link.timer_armed = false;
    }
    if (key.second == id) {
      // Its delivery/dedup state is volatile — lost in the crash.
      link.receiver.Reset();
    }
  }
  SWEEP_LOG(Debug) << "site " << id << " crashed";
}

void Network::RestartSite(int id) {
  SWEEP_CHECK_MSG(crashed_.erase(id) == 1, "site was not crashed");
  for (auto& [key, link] : links_) {
    if (key.first == id) {
      ConfigureSessionIfNeeded(link);
      link.sender.RestartWithNewEpoch();
      ++link.timer_gen;
      link.timer_armed = false;
    }
  }
  SWEEP_LOG(Debug) << "site " << id << " restarted";
}

}  // namespace sweepmv
