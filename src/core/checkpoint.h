// Byte codec for the warehouse's durable checkpoint.
//
// Crash recovery (docs/fault_model.md) restores the warehouse from an
// in-sim durable store: a checkpoint — the serialized protocol state,
// derived from the warehouse's and its algorithm's state lists
// (common/state.h) — and a WAL of update messages that arrived after the
// checkpoint was cut. The codec is deliberately dumb: fixed-width
// little-endian primitives, length-prefixed containers, no schema
// evolution (a checkpoint never outlives the simulated run that wrote
// it). It is total over the lists by construction and *deterministic*:
// unordered containers are serialized in sorted order, so identical
// states produce identical bytes and checkpoint size is a stable bench
// metric. This file holds the hand-written leaf formats; member lists
// never appear here.

#ifndef SWEEPMV_CORE_CHECKPOINT_H_
#define SWEEPMV_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/partial_delta.h"
#include "relational/relation.h"
#include "sim/message.h"
#include "source/update.h"

namespace sweepmv {

class CheckpointWriter {
 public:
  CheckpointWriter() = default;

  void WriteU8(uint8_t v);
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteI32(int32_t v);
  void WriteI64(int64_t v);
  void WriteF64(double v);
  void WriteString(const std::string& s);

  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  void WriteSchema(const Schema& s);
  void WriteRelation(const Relation& r);
  void WritePartialDelta(const PartialDelta& pd);
  void WriteUpdate(const Update& u);
  // Only the request messages a pending query can hold (QueryRequest,
  // EcaQueryRequest, SnapshotRequest); anything else is a CHECK failure.
  void WriteRequest(const Message& msg);

  // Hands the accumulated bytes over; the writer is spent afterwards.
  std::string Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

class CheckpointReader {
 public:
  // `bytes` must outlive the reader.
  explicit CheckpointReader(const std::string& bytes) : bytes_(bytes) {}

  uint8_t ReadU8();
  bool ReadBool() { return ReadU8() != 0; }
  int32_t ReadI32();
  int64_t ReadI64();
  double ReadF64();
  std::string ReadString();

  Value ReadValue();
  Tuple ReadTuple();
  Schema ReadSchema();
  Relation ReadRelation();
  PartialDelta ReadPartialDelta();
  Update ReadUpdate();
  Message ReadRequest();

  // True once every byte has been consumed; restore paths CHECK this so a
  // serializer/deserializer mismatch fails loudly instead of silently
  // truncating state.
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// Leaf codecs the derived checkpoint codec dispatches to.
inline void EncodeLeaf(CheckpointWriter& w, const Relation& x) {
  w.WriteRelation(x);
}
inline void EncodeLeaf(CheckpointWriter& w, const Tuple& x) {
  w.WriteTuple(x);
}
inline void EncodeLeaf(CheckpointWriter& w, const PartialDelta& x) {
  w.WritePartialDelta(x);
}
inline void EncodeLeaf(CheckpointWriter& w, const Update& x) {
  w.WriteUpdate(x);
}
inline void EncodeLeaf(CheckpointWriter& w, const Message& x) {
  w.WriteRequest(x);
}
inline void DecodeLeaf(CheckpointReader& r, Relation& x) {
  x = r.ReadRelation();
}
inline void DecodeLeaf(CheckpointReader& r, Tuple& x) { x = r.ReadTuple(); }
inline void DecodeLeaf(CheckpointReader& r, PartialDelta& x) {
  x = r.ReadPartialDelta();
}
inline void DecodeLeaf(CheckpointReader& r, Update& x) {
  x = r.ReadUpdate();
}
inline void DecodeLeaf(CheckpointReader& r, Message& x) {
  x = r.ReadRequest();
}

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_CHECKPOINT_H_
