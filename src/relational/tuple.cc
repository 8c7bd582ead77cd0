#include "relational/tuple.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

const Value& TupleRef::at(size_t i) const {
  SWEEP_CHECK_MSG(i < arity_, "tuple index out of range");
  return cells_[i];
}

Tuple TupleRef::Project(const std::vector<int>& positions) const {
  std::vector<Value> out;
  out.reserve(positions.size());
  for (int pos : positions) {
    SWEEP_CHECK_MSG(pos >= 0 && static_cast<size_t>(pos) < arity_,
                    "projection position out of range");
    out.push_back(cells_[static_cast<size_t>(pos)]);
  }
  return Tuple(std::move(out));
}

size_t TupleRef::ProjectionHash(const std::vector<int>& positions) const {
  size_t h = kEmptyTupleHash;
  for (int pos : positions) {
    h = FoldCellHash(h, cells_[static_cast<size_t>(pos)]);
  }
  return h;
}

bool TupleRef::SameAt(const std::vector<int>& mine, TupleRef other,
                      const std::vector<int>& theirs) const {
  for (size_t i = 0; i < mine.size(); ++i) {
    if (cells_[static_cast<size_t>(mine[i])] !=
        other.cells_[static_cast<size_t>(theirs[i])]) {
      return false;
    }
  }
  return true;
}

bool operator==(TupleRef a, TupleRef b) {
  return a.hash_ == b.hash_ && a.arity_ == b.arity_ &&
         std::equal(a.cells_, a.cells_ + a.arity_, b.cells_);
}

bool operator<(TupleRef a, TupleRef b) {
  return std::lexicographical_compare(a.cells_, a.cells_ + a.arity_,
                                      b.cells_, b.cells_ + b.arity_);
}

std::string TupleRef::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(arity_);
  for (const Value& v : values()) parts.push_back(v.ToDisplayString());
  return "(" + Join(parts, ",") + ")";
}

Tuple Tuple::Concat(TupleRef other) const {
  std::vector<Value> out;
  out.reserve(values_.size() + other.arity());
  out.insert(out.end(), values_.begin(), values_.end());
  out.insert(out.end(), other.values().begin(), other.values().end());
  return Tuple(std::move(out), FoldHash(hash_, other.values()));
}

Tuple IntTuple(std::initializer_list<int64_t> ints) {
  std::vector<Value> values;
  values.reserve(ints.size());
  for (int64_t v : ints) values.emplace_back(v);
  return Tuple(std::move(values));
}

std::ostream& operator<<(std::ostream& os, const Tuple& t) {
  return os << t.ToDisplayString();
}

std::ostream& operator<<(std::ostream& os, TupleRef t) {
  return os << t.ToDisplayString();
}

}  // namespace sweepmv
