#include "sim/simulator.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace sweepmv {

namespace {

// Channel identity for controlled-mode FIFO grouping.
using ChannelKey = std::tuple<int, int, int>;

ChannelKey KeyOf(const EventLabel& label) {
  switch (label.kind) {
    case EventKind::kDelivery:
      return {static_cast<int>(EventKind::kDelivery), label.from, label.to};
    case EventKind::kTxn:
      return {static_cast<int>(EventKind::kTxn), -1, label.to};
    case EventKind::kInternal:
      break;
  }
  return {static_cast<int>(EventKind::kInternal), -1, -1};
}

}  // namespace

void Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  Schedule(delay, EventLabel{}, std::move(fn));
}

void Simulator::Schedule(SimTime delay, EventLabel label,
                         std::function<void()> fn) {
  Schedule(delay, label, /*digest=*/0, std::move(fn));
}

void Simulator::Schedule(SimTime delay, EventLabel label, uint64_t digest,
                         std::function<void()> fn) {
  SWEEP_CHECK(delay >= 0);
  ScheduleAt(now_ + delay, label, digest, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  ScheduleAt(when, EventLabel{}, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, EventLabel label,
                           std::function<void()> fn) {
  ScheduleAt(when, label, /*digest=*/0, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, EventLabel label, uint64_t digest,
                           std::function<void()> fn) {
  SWEEP_CHECK_MSG(when >= now_ || controlled(),
                  "cannot schedule in the past");
  CaptureUndo();
  Event event{when, next_seq_++, label, digest, std::move(fn)};
  if (controlled()) {
    pending_.push_back(std::move(event));
  } else {
    queue_.push(std::move(event));
  }
}

void Simulator::CaptureUndo() {
  if (undo_ == nullptr) return;
  // The pending-event multiset *is* the schedule structure the explorer
  // enumerates; the oracle exempts the Simulator class wholesale (every
  // handler appends events, and channel append order is already the
  // commutativity question the independence relation answers).
  CaptureState(*undo_, *this, "Simulator", -1);
}

void Simulator::SetScheduler(Scheduler* scheduler) {
  SWEEP_CHECK(scheduler != nullptr);
  SWEEP_CHECK_MSG(queue_.empty() && pending_.empty() && next_seq_ == 0,
                  "SetScheduler must precede all scheduling");
  scheduler_ = scheduler;
}

std::vector<size_t> Simulator::ReadyIndices() const {
  // Head per channel: deliveries in send (seq) order — the network hands
  // them to us in per-link send order, so seq order *is* FIFO order —
  // transaction and internal channels in (time, seq) order.
  std::map<ChannelKey, size_t> heads;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Event& ev = pending_[i];
    ChannelKey key = KeyOf(ev.label);
    auto [it, inserted] = heads.emplace(key, i);
    if (inserted) continue;
    const Event& head = pending_[it->second];
    bool earlier;
    if (ev.label.kind == EventKind::kDelivery) {
      earlier = ev.seq < head.seq;
    } else {
      earlier = std::make_pair(ev.when, ev.seq) <
                std::make_pair(head.when, head.seq);
    }
    if (earlier) it->second = i;
  }
  std::vector<size_t> indices;
  indices.reserve(heads.size());
  for (const auto& [key, idx] : heads) indices.push_back(idx);
  return indices;
}

std::vector<Scheduler::Candidate> Simulator::Ready() const {
  SWEEP_CHECK_MSG(controlled(), "Ready() needs a scheduler");
  std::vector<Scheduler::Candidate> ready;
  for (size_t idx : ReadyIndices()) {
    const Event& ev = pending_[idx];
    ready.push_back(Scheduler::Candidate{ev.label, ev.when, ev.seq});
  }
  return ready;
}

bool Simulator::PendingEvents::Hash(StateHasher& h, const char* name,
                                    const std::vector<Event>& pending,
                                    bool exact) {
  bool hashable = true;
  if (exact) {
    std::vector<const Event*> events;
    events.reserve(pending.size());
    for (const Event& ev : pending) events.push_back(&ev);
    std::sort(events.begin(), events.end(),
              [](const Event* a, const Event* b) { return a->seq < b->seq; });
    h.U64(name, events.size());
    for (const Event* ev : events) {
      h.I64("ev.when", ev->when);
      h.I64("ev.seq", ev->seq);
      h.U64("ev.kind", static_cast<uint64_t>(ev->label.kind));
      h.I64("ev.from", ev->label.from);
      h.I64("ev.to", ev->label.to);
      h.Bytes("ev.what", ev->label.what, std::strlen(ev->label.what));
      h.U64("ev.digest", ev->digest);
      if (ev->digest == 0) hashable = false;
    }
    return hashable;
  }
  // Canonical mode: absolute sequence numbers are interleaving history,
  // not state — group per FIFO channel (ordered map => deterministic
  // channel order) and identify events by within-channel ordinal plus
  // content digest. `when` stays in: arrival times feed the controlled
  // clock via now = max(now, when), so they are behavior-relevant.
  std::map<ChannelKey, std::vector<const Event*>> channels;
  for (const Event& ev : pending) {
    channels[KeyOf(ev.label)].push_back(&ev);
  }
  h.U64(name, channels.size());
  for (auto& [key, events] : channels) {
    std::sort(events.begin(), events.end(),
              [](const Event* a, const Event* b) {
                if (a->label.kind == EventKind::kDelivery) {
                  return a->seq < b->seq;
                }
                return std::make_pair(a->when, a->seq) <
                       std::make_pair(b->when, b->seq);
              });
    h.I64("chan.kind", std::get<0>(key));
    h.I64("chan.from", std::get<1>(key));
    h.I64("chan.to", std::get<2>(key));
    h.U64("chan.events", events.size());
    uint64_t ordinal = 0;
    for (const Event* ev : events) {
      h.U64("ev.ordinal", ordinal++);
      h.I64("ev.when", ev->when);
      h.Bytes("ev.what", ev->label.what, std::strlen(ev->label.what));
      h.U64("ev.digest", ev->digest);
      if (ev->digest == 0) hashable = false;
    }
  }
  return hashable;
}

bool Simulator::StepControlled() {
  if (pending_.empty()) return false;
  std::vector<size_t> indices = ReadyIndices();
  std::vector<Scheduler::Candidate> ready;
  ready.reserve(indices.size());
  for (size_t idx : indices) {
    const Event& ev = pending_[idx];
    ready.push_back(Scheduler::Candidate{ev.label, ev.when, ev.seq});
  }
  size_t pick = scheduler_->Pick(ready);
  SWEEP_CHECK_MSG(pick < ready.size(), "scheduler picked out of range");
  CaptureUndo();
  size_t idx = indices[pick];
  Event ev = std::move(pending_[idx]);
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(idx));
  // The controlled clock never runs backwards: executing a "late" head
  // first leaves earlier-stamped heads in the logical past.
  now_ = std::max(now_, ev.when);
  ev.fn();
  return true;
}

bool Simulator::Step() {
  if (controlled()) return StepControlled();
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the handler is moved out before
  // pop via a const_cast-free copy of the callable wrapper.
  Event ev = queue_.top();
  queue_.pop();
  SWEEP_CHECK(ev.when >= now_);
  now_ = ev.when;
  ev.fn();
  return true;
}

int64_t Simulator::Run(int64_t max_events) {
  int64_t executed = 0;
  while ((max_events < 0 || executed < max_events) && Step()) {
    ++executed;
  }
  return executed;
}

int64_t Simulator::RunUntil(SimTime until) {
  SWEEP_CHECK_MSG(!controlled(), "RunUntil is time-ordered-mode only");
  SWEEP_CHECK(until >= now_);
  int64_t executed = 0;
  while (!queue_.empty() && queue_.top().when <= until && Step()) {
    ++executed;
  }
  now_ = until;
  return executed;
}

}  // namespace sweepmv
