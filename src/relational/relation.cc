#include "relational/relation.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

Relation::Relation(Schema schema)
    : schema_(std::move(schema)),
      stride_(static_cast<uint32_t>(schema_.arity())) {}

Relation::Relation(Relation&& other) noexcept { *this = std::move(other); }

Relation& Relation::operator=(Relation&& other) noexcept {
  schema_ = std::move(other.schema_);
  stride_ = std::exchange(other.stride_, 0);
  cells_ = std::move(other.cells_);
  meta_ = std::move(other.meta_);
  ragged_ = std::move(other.ragged_);
  table_ = std::move(other.table_);
  other.ClearRows();
  return *this;
}

Relation Relation::OfInts(
    Schema schema,
    std::initializer_list<std::initializer_list<int64_t>> rows) {
  Relation r(std::move(schema));
  for (const auto& row : rows) {
    r.Add(IntTuple(row), 1);
  }
  return r;
}

void Relation::CheckMatches(TupleRef t) const {
  SWEEP_CHECK_MSG(stride_ == 0 || schema_.Matches(t),
                  "tuple does not match relation schema");
}

bool Relation::RowHolds(uint32_t r, const Value* cells, size_t arity,
                        size_t hash) const {
  if (meta_[r].hash != hash) return false;
  const TupleRef stored = row(r);
  return stored.arity() == arity &&
         std::equal(cells, cells + arity, stored.values().begin());
}

uint32_t Relation::FindRow(TupleRef t) const {
  return table_.Find(t.Hash(), [&](uint32_t r) {
    return RowHolds(r, t.values().data(), t.arity(), t.Hash());
  });
}

uint32_t Relation::NextRowId() const {
  const auto id = static_cast<uint32_t>(meta_.size());
  SWEEP_CHECK_MSG(id != kNoRow, "relation row ids exhausted");
  return id;
}

void Relation::ReserveRow() {
  // Room for the whole row before any of its cells is written, so a join
  // row written in two parts grows the arena at most once; the capacity
  // doubles.
  const size_t need = cells_.size() + stride_;
  if (need > cells_.capacity()) {
    cells_.reserve(std::max(need, cells_.capacity() * 2));
  }
}

void Relation::CommitStaged(size_t hash, int64_t count) {
  const size_t first = meta_.size() * stride_;
  const uint32_t id = NextRowId();
  const uint32_t r = table_.FindOrInsert(hash, id, [&](uint32_t row) {
    return RowHolds(row, cells_.data() + first, stride_, hash);
  });
  if (r != id) {
    cells_.resize(first);
    AddToRow(r, count);
    return;
  }
  meta_.push_back({hash, count});
}

void Relation::AddToRow(uint32_t r, int64_t count) {
  meta_[r].count += count;
  if (meta_[r].count == 0) EraseRow(r);
}

void Relation::EraseRow(uint32_t r) {
  table_.Erase(meta_[r].hash, r);
  const auto last = static_cast<uint32_t>(meta_.size() - 1);
  if (r != last) {
    meta_[r] = meta_[last];
    if (stride_ != 0) {
      std::copy_n(cells_.begin() + size_t{last} * stride_, stride_,
                  cells_.begin() + size_t{r} * stride_);
    } else {
      ragged_[r] = std::move(ragged_[last]);
    }
    table_.Rename(meta_[r].hash, last, r);
  }
  meta_.pop_back();
  if (stride_ != 0) {
    cells_.resize(cells_.size() - stride_);
  } else {
    ragged_.pop_back();
  }
}

void Relation::ClearRows() {
  cells_ = {};
  meta_ = {};
  ragged_ = {};
  table_.Clear();
}

void Relation::AddRow(TupleRef t, int64_t count, bool check) {
  if (count == 0) return;
  const uint32_t id = NextRowId();
  const uint32_t r = table_.FindOrInsert(t.Hash(), id, [&](uint32_t row) {
    return RowHolds(row, t.values().data(), t.arity(), t.Hash());
  });
  if (r != id) {
    AddToRow(r, count);
    return;
  }
  // A failed check aborts, so the slot just taken never dangles.
  if (check) CheckMatches(t);
  if (stride_ != 0) {
    ReserveRow();
    cells_.insert(cells_.end(), t.values().begin(), t.values().end());
  } else {
    ragged_.emplace_back(t);
  }
  meta_.push_back({t.Hash(), count});
}

void Relation::Add(TupleRef t, int64_t count) {
  AddRow(t, count, /*check=*/true);
}

void Relation::AddConcat(TupleRef a, TupleRef b, int64_t count) {
  if (count == 0) return;
  if (stride_ == 0) {
    Add(Tuple(a).Concat(b), count);
    return;
  }
  SWEEP_CHECK_MSG(a.arity() + b.arity() == stride_,
                  "tuple does not match relation schema");
  ReserveRow();
  cells_.insert(cells_.end(), a.values().begin(), a.values().end());
  cells_.insert(cells_.end(), b.values().begin(), b.values().end());
  size_t hash = a.Hash();
  for (const Value& v : b.values()) hash = FoldCellHash(hash, v);
  CommitStaged(hash, count);
}

void Relation::AddProjection(TupleRef t, const std::vector<int>& positions,
                             int64_t count) {
  if (count == 0) return;
  if (stride_ == 0) {
    Add(t.Project(positions), count);
    return;
  }
  SWEEP_CHECK_MSG(positions.size() == stride_,
                  "tuple does not match relation schema");
  size_t hash = kEmptyTupleHash;
  ReserveRow();
  for (int pos : positions) {
    const Value& v = t.at(static_cast<size_t>(pos));
    cells_.push_back(v);
    hash = FoldCellHash(hash, v);
  }
  CommitStaged(hash, count);
}

int64_t Relation::CountOf(TupleRef t) const {
  const uint32_t r = FindRow(t);
  return r == kNoRow ? 0 : meta_[r].count;
}

int64_t Relation::TotalCount() const {
  int64_t total = 0;
  for (const RowMeta& m : meta_) total += m.count;
  return total;
}

int64_t Relation::AbsoluteCount() const {
  int64_t total = 0;
  for (const RowMeta& m : meta_) total += m.count < 0 ? -m.count : m.count;
  return total;
}

bool Relation::HasNegative() const {
  for (const RowMeta& m : meta_) {
    if (m.count < 0) return true;
  }
  return false;
}

void Relation::MergeScaled(const Relation& other, int64_t sign) {
  // A fixed-arity relation checked its rows when they entered it, so one
  // schema comparison covers them all; an arity-0 one checked nothing.
  const bool check_each = stride_ != 0 && other.stride_ == 0;
  SWEEP_CHECK_MSG(stride_ == 0 || other.stride_ == 0 || other.Empty() ||
                      schema_.SameTypes(other.schema_),
                  "tuple does not match relation schema");
  const auto rows = static_cast<uint32_t>(other.DistinctSize());
  for (uint32_t r = 0; r < rows; ++r) {
    AddRow(other.row(r), sign * other.count(r), check_each);
  }
}

void Relation::Merge(const Relation& other) { MergeScaled(other, 1); }

void Relation::Merge(Relation&& other) {
  if (Empty() && stride_ == other.stride_ &&
      (stride_ == 0 || schema_.SameTypes(other.schema_))) {
    cells_ = std::move(other.cells_);
    meta_ = std::move(other.meta_);
    ragged_ = std::move(other.ragged_);
    table_ = std::move(other.table_);
  } else {
    MergeScaled(other, 1);
  }
  other.ClearRows();
}

void Relation::MergeNegated(const Relation& other) {
  SWEEP_CHECK_MSG(&other != this, "a relation cannot subtract itself");
  MergeScaled(other, -1);
}

Relation Relation::Negated() const {
  Relation out = *this;
  for (RowMeta& m : out.meta_) m.count = -m.count;
  return out;
}

size_t Relation::EraseMatching(const std::vector<int>& positions,
                               const Tuple& key) {
  size_t erased = 0;
  for (uint32_t r = 0; r < meta_.size();) {
    if (row(r).Project(positions) == key) {
      EraseRow(r);  // the last row moves into r: look at r again
      ++erased;
    } else {
      ++r;
    }
  }
  return erased;
}

void Relation::ClampToSet() {
  for (RowMeta& m : meta_) {
    if (m.count > 1) m.count = 1;
  }
}

bool Relation::operator==(const Relation& other) const {
  if (DistinctSize() != other.DistinctSize()) return false;
  for (uint32_t r = 0; r < meta_.size(); ++r) {
    const uint32_t o = other.FindRow(row(r));
    if (o == kNoRow || other.meta_[o].count != meta_[r].count) return false;
  }
  return true;
}

std::vector<Relation::Entry> Relation::SortedEntries() const& {
  std::vector<Entry> out(entries().begin(), entries().end());
  const bool int_keys = stride_ >= 2 &&
                        schema_.attr(0).type == ValueType::kInt &&
                        schema_.attr(1).type == ValueType::kInt;
  if (!int_keys) {
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.first < b.first;
    });
    return out;
  }
  // Every row matches the schema, so each one leads with two ints. Each
  // is carried as an unsigned key with the sign bit flipped, which orders
  // exactly as the signed value; the tuple compare breaks ties on both.
  struct Keyed {
    uint64_t k0;
    uint64_t k1;
    Entry entry;
  };
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  std::vector<Keyed> keyed;
  keyed.reserve(out.size());
  for (const Entry& e : out) {
    keyed.push_back({static_cast<uint64_t>(e.first[0].AsInt()) ^ kSignBit,
                     static_cast<uint64_t>(e.first[1].AsInt()) ^ kSignBit,
                     e});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.k0 != b.k0) return a.k0 < b.k0;
    if (a.k1 != b.k1) return a.k1 < b.k1;
    return a.entry.first < b.entry.first;
  });
  for (size_t i = 0; i < keyed.size(); ++i) out[i] = keyed[i].entry;
  return out;
}

std::string Relation::ToDisplayString() const {
  std::vector<std::string> parts;
  for (const auto& [t, c] : SortedEntries()) {
    parts.push_back(t.ToDisplayString() + "[" + std::to_string(c) + "]");
  }
  return "{" + Join(parts, ", ") + "}";
}

std::ostream& operator<<(std::ostream& os, const Relation& r) {
  return os << r.ToDisplayString();
}

Fp128 RelationDigest(const Relation& rel) {
  Fp128 sum;
  // A commutative reduction: lane sums mod 2^64 are the same in every
  // visit order.
  for (const auto& [t, c] : rel.entries()) {
    const uint64_t hash = static_cast<uint64_t>(t.Hash());
    const uint64_t count = static_cast<uint64_t>(c);
    sum.lo += count * SplitMixLane(hash, 0xa0761d6478bd642full);
    sum.hi += count * SplitMixLane(hash, 0xe7037ed1a0b428dbull);
  }
  return sum;
}

void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel) {
  h.U64(tag, rel.DistinctSize());
  const Fp128 sum = RelationDigest(rel);
  h.Mix(sum.lo);
  h.Mix(sum.hi);
  if (!h.keeps_text()) return;
  for (const auto& [t, c] : rel.SortedEntries()) {
    h.Note("t.hash", static_cast<uint64_t>(t.Hash()));
    h.Note("t.count", static_cast<uint64_t>(c));
  }
}

}  // namespace sweepmv
