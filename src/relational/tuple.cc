#include "relational/tuple.h"

#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

const Value& Tuple::at(size_t i) const {
  SWEEP_CHECK_MSG(i < values_.size(), "tuple index out of range");
  return values_[i];
}

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> out;
  out.reserve(values_.size() + other.values_.size());
  out.insert(out.end(), values_.begin(), values_.end());
  out.insert(out.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(out), FoldHash(hash_, other.values_));
}

Tuple Tuple::Project(const std::vector<int>& positions) const {
  std::vector<Value> out;
  out.reserve(positions.size());
  for (int pos : positions) {
    SWEEP_CHECK_MSG(pos >= 0 && static_cast<size_t>(pos) < values_.size(),
                    "projection position out of range");
    out.push_back(values_[static_cast<size_t>(pos)]);
  }
  return Tuple(std::move(out));
}

std::string Tuple::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToDisplayString());
  return "(" + Join(parts, ",") + ")";
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

}  // namespace sweepmv
