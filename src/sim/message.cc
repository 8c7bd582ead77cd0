#include "sim/message.h"

#include "common/state.h"

namespace sweepmv {

uint64_t MessageDigest(const Message& msg) {
  StateHasher h;
  StateHashVisitor(h, /*exact=*/false).Absorb("msg", msg);
  Fp128 d = h.Digest();
  uint64_t digest = d.lo ^ d.hi;
  return digest == 0 ? 1 : digest;
}

MessageClass ClassOf(const Message& msg) {
  struct Visitor {
    MessageClass operator()(const UpdateMessage&) const {
      return MessageClass::kUpdateNotification;
    }
    MessageClass operator()(const QueryRequest&) const {
      return MessageClass::kQueryRequest;
    }
    MessageClass operator()(const QueryAnswer&) const {
      return MessageClass::kQueryAnswer;
    }
    MessageClass operator()(const EcaQueryRequest&) const {
      return MessageClass::kQueryRequest;
    }
    MessageClass operator()(const EcaQueryAnswer&) const {
      return MessageClass::kQueryAnswer;
    }
    MessageClass operator()(const SnapshotRequest&) const {
      return MessageClass::kQueryRequest;
    }
    MessageClass operator()(const SnapshotAnswer&) const {
      return MessageClass::kQueryAnswer;
    }
    MessageClass operator()(const SessionDatagram& m) const {
      return m.payload ? ClassOf(*m.payload)
                       : MessageClass::kTransportControl;
    }
  };
  return std::visit(Visitor{}, msg);
}

int64_t PayloadTuples(const Message& msg) {
  struct Visitor {
    int64_t operator()(const UpdateMessage& m) const {
      return static_cast<int64_t>(m.update.delta.DistinctSize());
    }
    int64_t operator()(const QueryRequest& m) const {
      return static_cast<int64_t>(m.partial.rel.DistinctSize());
    }
    int64_t operator()(const QueryAnswer& m) const {
      return static_cast<int64_t>(m.partial.rel.DistinctSize());
    }
    int64_t operator()(const EcaQueryRequest& m) const {
      int64_t total = 0;
      for (const EcaTerm& term : m.terms) {
        for (const auto& fixed : term.fixed) {
          if (fixed.has_value()) {
            total += static_cast<int64_t>(fixed->DistinctSize());
          }
        }
      }
      return total;
    }
    int64_t operator()(const EcaQueryAnswer& m) const {
      return static_cast<int64_t>(m.result.DistinctSize());
    }
    int64_t operator()(const SnapshotRequest&) const { return 0; }
    int64_t operator()(const SnapshotAnswer& m) const {
      return static_cast<int64_t>(m.snapshot.DistinctSize());
    }
    int64_t operator()(const SessionDatagram& m) const {
      return m.payload ? PayloadTuples(*m.payload) : 0;
    }
  };
  return std::visit(Visitor{}, msg);
}

const char* MessageClassName(MessageClass c) {
  switch (c) {
    case MessageClass::kUpdateNotification:
      return "update";
    case MessageClass::kQueryRequest:
      return "query";
    case MessageClass::kQueryAnswer:
      return "answer";
    case MessageClass::kTransportControl:
      return "transport";
    default:
      return "?";
  }
}

}  // namespace sweepmv
