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
// metric. This file holds the hand-written leaf formats: primitives,
// values, tuples, schemas and relations. Everything built from them (an
// update, a partial delta, a pending request) is written from its own
// state list, and member lists never appear here.

#ifndef SWEEPMV_CORE_CHECKPOINT_H_
#define SWEEPMV_CORE_CHECKPOINT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace sweepmv {

class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  // Appends to `bytes` instead of starting empty.
  explicit CheckpointWriter(std::string bytes) : bytes_(std::move(bytes)) {}

  void WriteU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteI32(int32_t v) { Append(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { Append(static_cast<uint64_t>(v)); }
  void WriteF64(double v) { Append(std::bit_cast<uint64_t>(v)); }
  void WriteString(const std::string& s);

  void WriteValue(const Value& v);
  void WriteTuple(TupleRef t);
  void WriteSchema(const Schema& s);
  void WriteRelation(const Relation& r);

  // Hands the accumulated bytes over; the writer is spent afterwards.
  std::string Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  // Stores `v` little-endian at `out` and returns the position after it.
  // The bytes are built in a local buffer and copied with one memcpy,
  // which compiles to a single store; storing byte by byte through a
  // pointer into the buffer does not, since a char store may alias
  // anything, the buffer's own bookkeeping included.
  template <typename U>
  static char* StoreLe(char* out, U v) {
    char buf[sizeof(U)];
    for (size_t i = 0; i < sizeof(U); ++i) {
      buf[i] = static_cast<char>(v >> (8 * i));
    }
    std::memcpy(out, buf, sizeof(U));
    return out + sizeof(U);
  }

  template <typename U>
  void Append(U v) {
    char buf[sizeof(U)];
    StoreLe(buf, v);
    bytes_.append(buf, sizeof(U));
  }

  // Grows the buffer by exactly `n` bytes and returns where they start.
  char* Grow(size_t n);
  static char* StoreValue(char* out, const Value& v);

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

  // True once every byte has been consumed; restore paths CHECK this so a
  // serializer/deserializer mismatch fails loudly instead of silently
  // truncating state.
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// The durable copy of the warehouse's view: a base image of the view,
// then the view deltas installed since, each encoded as a relation, in
// one buffer. A cut appends the delta installed since the previous cut.
// When the deltas' bytes would exceed the base's, it rewrites the base
// from the live view instead. Amortized, a cut then writes about twice
// its delta, and the buffer stays under about twice the base.
class DurableView {
 public:
  // Records `view` at a cut. `delta` is the view delta installed since
  // the previous cut, or null when it is unknown (before the first cut,
  // or after an absolute install); the base is rewritten then.
  void Cut(const Relation& view, const Relation* delta);

  // The view at the last cut: the base with every delta merged in, in
  // order. Requires a cut to have been taken.
  Relation Rebuild() const;

  bool empty() const { return bytes_.empty(); }
  size_t size() const { return bytes_.size(); }

  bool operator==(const DurableView&) const = default;

 private:
  std::string bytes_;
  size_t base_size_ = 0;
};

// Fingerprint leaf for the state lists (common/state.h): a presence flag,
// then the view the durable copy holds, by content, whatever split of
// base and deltas holds it.
void HashLeaf(StateHasher& h, const char* tag, const DurableView& x);

// Leaf codecs the derived checkpoint codec dispatches to.
inline void EncodeLeaf(CheckpointWriter& w, const Relation& x) {
  w.WriteRelation(x);
}
inline void EncodeLeaf(CheckpointWriter& w, const Tuple& x) {
  w.WriteTuple(x);
}
inline void DecodeLeaf(CheckpointReader& r, Relation& x) {
  x = r.ReadRelation();
}
inline void DecodeLeaf(CheckpointReader& r, Tuple& x) { x = r.ReadTuple(); }

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_CHECKPOINT_H_
