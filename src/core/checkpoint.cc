#include "core/checkpoint.h"

#include <cstring>

#include "common/check.h"

namespace sweepmv {

namespace {

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

void CheckpointWriter::WriteTuple(TupleRef t) {
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
  for (const auto& [t, c] : entries) {
    WriteTuple(t);
    WriteI64(c);
  }
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

void HashLeaf(StateHasher& h, const char* tag, const DurableView& x) {
  h.Bool(tag, !x.empty());
  if (!x.empty()) AbsorbRelation(h, tag, x.Rebuild());
}

}  // namespace sweepmv
