// Message taxonomy of the warehouse protocols.
//
// Five algorithm families share this vocabulary:
//   * UpdateMessage       — source → warehouse update notification.
//   * QueryRequest/Answer — the sweep-style incremental query: the
//     warehouse ships a partial delta, the source joins its base relation
//     on the appropriate side and ships the widened partial back. Used by
//     SWEEP, Nested SWEEP, Strobe and C-Strobe.
//   * EcaQueryRequest/Answer — ECA's compensated queries against a single
//     multi-relation source: a signed sum of join terms in which some
//     positions are fixed to delta relations and the rest are filled from
//     the source's current base relations.
//   * SnapshotRequest/Answer — full base-relation fetch for the naive
//     recompute baseline.
//
// Each message struct lists its fields once (common/state.h): the
// warehouse checkpoint codec writes a pending Request from that list, and
// MessageDigest hashes any Message from it.

#ifndef SWEEPMV_SIM_MESSAGE_H_
#define SWEEPMV_SIM_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "relational/partial_delta.h"
#include "relational/relation.h"
#include "source/update.h"

namespace sweepmv {

struct UpdateMessage {
  Update update;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("update", self.update);
  }
};

struct QueryRequest {
  int64_t query_id = -1;
  // Relation index the addressed source must join into the partial.
  int target_rel = -1;
  // True: the source extends the partial on the left (target_rel ==
  // partial.lo - 1); false: on the right (target_rel == partial.hi + 1).
  bool extend_left = false;
  PartialDelta partial;
  // Warehouse recovery epoch (docs/fault_model.md §6): stamped on every
  // query, echoed verbatim in the answer, so a recovered warehouse can
  // discard answers addressed to a dead incarnation. 0 on every message
  // while the warehouse has never crashed. Last member, like the other
  // message structs, so pre-existing aggregate initializers stay valid.
  int64_t epoch = 0;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
    v.Protocol("target_rel", self.target_rel);
    v.Protocol("extend_left", self.extend_left);
    v.Protocol("partial", self.partial);
  }
};

struct QueryAnswer {
  int64_t query_id = -1;
  PartialDelta partial;
  int64_t epoch = 0;  // echoed from the request

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
    v.Protocol("partial", self.partial);
  }
};

// One signed join term of an ECA query. `fixed[r]`, when present, pins
// relation r to the given delta; absent positions are filled from the
// source's current base relations.
struct EcaTerm {
  int sign = 1;
  std::vector<std::optional<Relation>> fixed;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("sign", self.sign);
    v.Protocol("fixed", self.fixed);
  }
};

struct EcaQueryRequest {
  int64_t query_id = -1;
  std::vector<EcaTerm> terms;
  int64_t epoch = 0;  // warehouse recovery epoch (see QueryRequest)

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
    v.Protocol("terms", self.terms);
  }
};

struct EcaQueryAnswer {
  int64_t query_id = -1;
  // Signed sum of the evaluated terms, over the view's joined schema.
  Relation result;
  int64_t epoch = 0;  // echoed from the request

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
    v.Protocol("result", self.result);
  }
};

struct SnapshotRequest {
  int64_t query_id = -1;
  int64_t epoch = 0;  // warehouse recovery epoch (see QueryRequest)

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
  }
};

struct SnapshotAnswer {
  int64_t query_id = -1;
  int relation = -1;
  Relation snapshot;
  int64_t epoch = 0;  // echoed from the request

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("query_id", self.query_id);
    v.Protocol("epoch", self.epoch);
    v.Protocol("relation", self.relation);
    v.Protocol("snapshot", self.snapshot);
  }
};

// SessionDatagram carries any Message by pointer, so the variant can
// include it by forward declaration.
struct SessionDatagram;

using Message =
    std::variant<UpdateMessage, QueryRequest, QueryAnswer, EcaQueryRequest,
                 EcaQueryAnswer, SnapshotRequest, SnapshotAnswer,
                 SessionDatagram>;

// The requests a warehouse keeps pending until answered, and checkpoints.
// A checkpoint writes the alternative's index, so the order is part of the
// checkpoint bytes.
using Request = std::variant<QueryRequest, EcaQueryRequest, SnapshotRequest>;

// Reliability-layer envelope (sim/session.h, docs/fault_model.md): a
// sequenced application payload, or — with seq == -1 — a pure cumulative
// ack. Only faulty links carry datagrams; sites never see them (the
// network unwraps before delivery).
struct SessionDatagram {
  int64_t seq = -1;       // -1 marks a pure ack
  int64_t base_seq = 0;   // sender's oldest unacked at transmit time
  int64_t cum_ack = -1;   // highest in-order delivered seq (acks only)
  int64_t epoch = 0;      // sender incarnation (acks: epoch being acked)
  std::shared_ptr<const Message> payload;  // null for pure acks

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("seq", self.seq);
    v.Protocol("base_seq", self.base_seq);
    v.Protocol("cum_ack", self.cum_ack);
    v.Protocol("epoch", self.epoch);
    v.Protocol("payload", self.payload);
  }
};

// Broad classes for traffic accounting.
enum class MessageClass : int {
  kUpdateNotification = 0,
  kQueryRequest = 1,
  kQueryAnswer = 2,
  // Session-layer control traffic (acks); data datagrams classify as
  // their payload.
  kTransportControl = 3,
  kNumClasses = 4,
};

MessageClass ClassOf(const Message& msg);

// Canonical content digest of a message for the explorer's state
// fingerprints: the message's state list through StateHashVisitor, so a
// relation digests additively (RelationDigest) and a datagram by its
// payload's content. The same payload digests identically no matter
// which interleaving produced it. Never returns 0 — the simulator
// reserves digest 0 for "undigested event".
uint64_t MessageDigest(const Message& msg);

// Number of tuples the message carries — the size proxy used by the
// benches (the paper discusses message *size* for ECA in these terms).
int64_t PayloadTuples(const Message& msg);

const char* MessageClassName(MessageClass c);

}  // namespace sweepmv

#endif  // SWEEPMV_SIM_MESSAGE_H_
