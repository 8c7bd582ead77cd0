#include "core/checkpoint.h"

#include <cstring>

#include "common/check.h"

namespace sweepmv {

namespace {

// Request-message tags (the three query kinds a PendingQuery can hold).
constexpr uint8_t kTagQueryRequest = 0;
constexpr uint8_t kTagEcaQueryRequest = 1;
constexpr uint8_t kTagSnapshotRequest = 2;

// Encoded size of one cell: its type tag, then an 8-byte payload or a
// length-prefixed text.
size_t CellSize(const Value& v) {
  return 1 + 8 + (v.type() == ValueType::kString ? v.AsString().size() : 0);
}

}  // namespace

char* CheckpointWriter::Grow(size_t n) {
  const size_t start = bytes_.size();
  bytes_.resize(start + n);
  return bytes_.data() + start;
}

char* CheckpointWriter::StoreValue(char* out, const Value& v) {
  const ValueType type = v.type();
  *out++ = static_cast<char>(type);
  switch (type) {
    case ValueType::kInt:
      return StoreLe(out, static_cast<uint64_t>(v.AsInt()));
    case ValueType::kDouble:
      return StoreLe(out, std::bit_cast<uint64_t>(v.AsDouble()));
    case ValueType::kString: {
      const std::string& text = v.AsString();
      out = StoreLe(out, static_cast<uint64_t>(text.size()));
      std::memcpy(out, text.data(), text.size());
      return out + text.size();
    }
  }
  SWEEP_CHECK_MSG(false, "unknown value type in checkpoint");
  return out;
}

void CheckpointWriter::WriteString(const std::string& s) {
  WriteI64(static_cast<int64_t>(s.size()));
  bytes_.append(s);
}

void CheckpointWriter::WriteValue(const Value& v) {
  StoreValue(Grow(CellSize(v)), v);
}

void CheckpointWriter::WriteTuple(const Tuple& t) {
  size_t size = 8;
  for (const Value& v : t.values()) size += CellSize(v);
  char* out = StoreLe(Grow(size), static_cast<uint64_t>(t.arity()));
  for (const Value& v : t.values()) out = StoreValue(out, v);
}

void CheckpointWriter::WriteSchema(const Schema& s) {
  WriteI64(static_cast<int64_t>(s.arity()));
  for (const Attribute& a : s.attrs()) {
    WriteString(a.name);
    WriteU8(static_cast<uint8_t>(a.type));
  }
}

void CheckpointWriter::WriteRelation(const Relation& r) {
  WriteSchema(r.schema());
  const auto entries = r.SortedEntries();
  WriteI64(static_cast<int64_t>(entries.size()));
  for (const auto* entry : entries) {
    WriteTuple(entry->first);
    WriteI64(entry->second);
  }
}

void CheckpointWriter::WritePartialDelta(const PartialDelta& pd) {
  WriteI32(pd.lo);
  WriteI32(pd.hi);
  WriteRelation(pd.rel);
}

void CheckpointWriter::WriteUpdate(const Update& u) {
  WriteI64(u.id);
  WriteI32(u.relation);
  WriteRelation(u.delta);
  WriteI64(u.applied_at);
}

void CheckpointWriter::WriteRequest(const Message& msg) {
  if (const auto* query = std::get_if<QueryRequest>(&msg)) {
    WriteU8(kTagQueryRequest);
    WriteI64(query->query_id);
    WriteI64(query->epoch);
    WriteI32(query->target_rel);
    WriteBool(query->extend_left);
    WritePartialDelta(query->partial);
    return;
  }
  if (const auto* eca = std::get_if<EcaQueryRequest>(&msg)) {
    WriteU8(kTagEcaQueryRequest);
    WriteI64(eca->query_id);
    WriteI64(eca->epoch);
    WriteI64(static_cast<int64_t>(eca->terms.size()));
    for (const EcaTerm& term : eca->terms) {
      WriteI32(term.sign);
      WriteI64(static_cast<int64_t>(term.fixed.size()));
      for (const auto& slot : term.fixed) {
        WriteBool(slot.has_value());
        if (slot.has_value()) WriteRelation(*slot);
      }
    }
    return;
  }
  if (const auto* snap = std::get_if<SnapshotRequest>(&msg)) {
    WriteU8(kTagSnapshotRequest);
    WriteI64(snap->query_id);
    WriteI64(snap->epoch);
    return;
  }
  SWEEP_CHECK_MSG(false,
                  "only query requests are checkpointed (pending queries)");
}

uint8_t CheckpointReader::ReadU8() {
  SWEEP_CHECK_MSG(pos_ < bytes_.size(), "checkpoint truncated");
  return static_cast<uint8_t>(bytes_[pos_++]);
}

int32_t CheckpointReader::ReadI32() {
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(ReadU8()) << shift;
  }
  return static_cast<int32_t>(v);
}

int64_t CheckpointReader::ReadI64() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(ReadU8()) << shift;
  }
  return static_cast<int64_t>(v);
}

double CheckpointReader::ReadF64() {
  int64_t bits = ReadI64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::ReadString() {
  const int64_t size = ReadI64();
  SWEEP_CHECK(size >= 0 &&
              pos_ + static_cast<size_t>(size) <= bytes_.size());
  std::string s = bytes_.substr(pos_, static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  return s;
}

Value CheckpointReader::ReadValue() {
  const auto type = static_cast<ValueType>(ReadU8());
  switch (type) {
    case ValueType::kInt:
      return Value(ReadI64());
    case ValueType::kDouble:
      return Value(ReadF64());
    case ValueType::kString:
      // Re-interning restores the shared-buffer invariant of the pool.
      return Value(ReadString());
  }
  SWEEP_CHECK_MSG(false, "unknown value type in checkpoint");
  return Value();
}

Tuple CheckpointReader::ReadTuple() {
  const int64_t arity = ReadI64();
  SWEEP_CHECK(arity >= 0);
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(arity));
  for (int64_t i = 0; i < arity; ++i) values.push_back(ReadValue());
  return Tuple(std::move(values));
}

Schema CheckpointReader::ReadSchema() {
  const int64_t arity = ReadI64();
  SWEEP_CHECK(arity >= 0);
  std::vector<Attribute> attrs;
  attrs.reserve(static_cast<size_t>(arity));
  for (int64_t i = 0; i < arity; ++i) {
    Attribute a;
    a.name = ReadString();
    a.type = static_cast<ValueType>(ReadU8());
    attrs.push_back(std::move(a));
  }
  return Schema(std::move(attrs));
}

Relation CheckpointReader::ReadRelation() {
  Relation r(ReadSchema());
  const int64_t entries = ReadI64();
  SWEEP_CHECK(entries >= 0);
  for (int64_t i = 0; i < entries; ++i) {
    Tuple t = ReadTuple();
    const int64_t count = ReadI64();
    r.Add(t, count);
  }
  return r;
}

PartialDelta CheckpointReader::ReadPartialDelta() {
  PartialDelta pd;
  pd.lo = ReadI32();
  pd.hi = ReadI32();
  pd.rel = ReadRelation();
  return pd;
}

Update CheckpointReader::ReadUpdate() {
  Update u;
  u.id = ReadI64();
  u.relation = ReadI32();
  u.delta = ReadRelation();
  u.applied_at = ReadI64();
  return u;
}

Message CheckpointReader::ReadRequest() {
  const uint8_t tag = ReadU8();
  if (tag == kTagQueryRequest) {
    QueryRequest query;
    query.query_id = ReadI64();
    query.epoch = ReadI64();
    query.target_rel = ReadI32();
    query.extend_left = ReadBool();
    query.partial = ReadPartialDelta();
    return query;
  }
  if (tag == kTagEcaQueryRequest) {
    EcaQueryRequest eca;
    eca.query_id = ReadI64();
    eca.epoch = ReadI64();
    const int64_t terms = ReadI64();
    SWEEP_CHECK(terms >= 0);
    for (int64_t i = 0; i < terms; ++i) {
      EcaTerm term;
      term.sign = ReadI32();
      const int64_t slots = ReadI64();
      SWEEP_CHECK(slots >= 0);
      for (int64_t s = 0; s < slots; ++s) {
        if (ReadBool()) {
          term.fixed.push_back(ReadRelation());
        } else {
          term.fixed.push_back(std::nullopt);
        }
      }
      eca.terms.push_back(std::move(term));
    }
    return eca;
  }
  if (tag == kTagSnapshotRequest) {
    SnapshotRequest snap;
    snap.query_id = ReadI64();
    snap.epoch = ReadI64();
    return snap;
  }
  SWEEP_CHECK_MSG(false, "unknown request tag in checkpoint");
  return SnapshotRequest{};
}

void DurableView::Cut(const Relation& view, const Relation* delta) {
  if (delta != nullptr && !bytes_.empty()) {
    if (delta->Empty()) return;
    CheckpointWriter w(std::move(bytes_));
    w.WriteRelation(*delta);
    if (w.size() - base_size_ <= base_size_) {
      bytes_ = w.Take();
      return;
    }
  }
  CheckpointWriter w;
  w.WriteRelation(view);
  bytes_ = w.Take();
  base_size_ = bytes_.size();
}

Relation DurableView::Rebuild() const {
  CheckpointReader r(bytes_);
  Relation view = r.ReadRelation();
  while (!r.AtEnd()) view.Merge(r.ReadRelation());
  return view;
}

void EncodeLeaf(CheckpointWriter& w, const DurableView& x) {
  w.WriteBool(!x.empty());
  if (!x.empty()) w.WriteRelation(x.Rebuild());
}

}  // namespace sweepmv
