// Tuples: fixed-arity sequences of Values.

#ifndef SWEEPMV_RELATIONAL_TUPLE_H_
#define SWEEPMV_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <iosfwd>
#include <initializer_list>
#include <string>
#include <vector>

#include "relational/value.h"

namespace sweepmv {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::move(values)), hash_(FoldHash(kEmptyHash, values_)) {}
  Tuple(std::initializer_list<Value> values)
      : values_(values), hash_(FoldHash(kEmptyHash, values_)) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const;
  const std::vector<Value>& values() const { return values_; }

  // Concatenation of this tuple followed by `other` (used by joins). The
  // hash continues this tuple's fold over `other`'s cells.
  Tuple Concat(const Tuple& other) const;

  // Projection onto the given attribute positions (order preserved,
  // duplicates allowed).
  Tuple Project(const std::vector<int>& positions) const;

  bool operator==(const Tuple& other) const {
    return hash_ == other.hash_ && values_ == other.values_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const { return values_ < other.values_; }

  // O(1): tuples are immutable, so the hash is computed once at
  // construction. Hash-keyed containers (Relation's count map, join
  // tables, index buckets) and snapshot copies never rehash the values.
  size_t Hash() const { return hash_; }

  // "(1, 3, \"x\")"
  std::string ToDisplayString() const;

 private:
  // Hash of the empty tuple: the FNV offset basis.
  static constexpr size_t kEmptyHash = 0xcbf29ce484222325ULL;

  Tuple(std::vector<Value> values, size_t hash)
      : values_(std::move(values)), hash_(hash) {}

  // Left fold of the cells' hashes, starting from `h`. A tuple's hash is
  // the fold from kEmptyHash over all its cells.
  static size_t FoldHash(size_t h, const std::vector<Value>& values) {
    for (const Value& v : values) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }

  std::vector<Value> values_;
  size_t hash_ = kEmptyHash;
};

// Convenience builder for all-integer tuples (the dominant case in tests
// and in the paper's examples).
Tuple IntTuple(std::initializer_list<int64_t> ints);

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_TUPLE_H_
