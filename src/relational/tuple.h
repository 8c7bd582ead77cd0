// Tuples: fixed-arity sequences of Values.
//
// Tuple owns its cells; it is the type of updates, keys and messages.
// TupleRef is a non-owning view with the same read API: a relation stores
// its rows in one flat cell arena (relation.h) and hands them out as
// TupleRefs, so reading a row copies nothing.

#ifndef SWEEPMV_RELATIONAL_TUPLE_H_
#define SWEEPMV_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <iosfwd>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "relational/value.h"

namespace sweepmv {

// Hash of the empty tuple: the FNV offset basis.
inline constexpr size_t kEmptyTupleHash = 0xcbf29ce484222325ULL;

// One step of the tuple hash: a tuple's hash is the left fold of this
// over its cells, starting from kEmptyTupleHash. A concatenation
// continues the left part's hash over the right part's cells.
inline size_t FoldCellHash(size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

class Tuple;

class TupleRef {
 public:
  TupleRef(const Value* cells, size_t arity, size_t hash)
      : cells_(cells), arity_(arity), hash_(hash) {}
  // Views `t`'s cells; valid while `t` is alive and unchanged.
  TupleRef(const Tuple& t);  // NOLINT(google-explicit-constructor)

  size_t arity() const { return arity_; }
  const Value& at(size_t i) const;
  // Unchecked.
  const Value& operator[](size_t i) const { return cells_[i]; }
  std::span<const Value> values() const { return {cells_, arity_}; }
  size_t Hash() const { return hash_; }

  // Projection onto the given attribute positions (order preserved,
  // duplicates allowed).
  Tuple Project(const std::vector<int>& positions) const;

  // The hash of the projection onto `positions`, without building it.
  size_t ProjectionHash(const std::vector<int>& positions) const;

  // True if this tuple's cells at `mine` equal `other`'s at `theirs`
  // (equal-length position lists).
  bool SameAt(const std::vector<int>& mine, TupleRef other,
              const std::vector<int>& theirs) const;

  friend bool operator==(TupleRef a, TupleRef b);
  friend bool operator<(TupleRef a, TupleRef b);

  // "(1, 3, \"x\")"
  std::string ToDisplayString() const;

 private:
  const Value* cells_;
  size_t arity_;
  size_t hash_;
};

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::move(values)), hash_(FoldHash(kEmptyTupleHash, values_)) {}
  Tuple(std::initializer_list<Value> values)
      : values_(values), hash_(FoldHash(kEmptyTupleHash, values_)) {}
  // Copies a viewed row's cells and hash.
  explicit Tuple(TupleRef t)
      : values_(t.values().begin(), t.values().end()), hash_(t.Hash()) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return TupleRef(*this).at(i); }
  const std::vector<Value>& values() const { return values_; }

  // Concatenation of this tuple followed by `other` (used by joins). The
  // hash continues this tuple's fold over `other`'s cells.
  Tuple Concat(TupleRef other) const;

  Tuple Project(const std::vector<int>& positions) const {
    return TupleRef(*this).Project(positions);
  }

  bool operator==(const Tuple& other) const {
    return hash_ == other.hash_ && values_ == other.values_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const { return values_ < other.values_; }

  // O(1): tuples are immutable, so the hash is computed once at
  // construction. Hash-keyed containers and snapshot copies never rehash
  // the values.
  size_t Hash() const { return hash_; }

  std::string ToDisplayString() const {
    return TupleRef(*this).ToDisplayString();
  }

 private:
  Tuple(std::vector<Value> values, size_t hash)
      : values_(std::move(values)), hash_(hash) {}

  template <class Cells>
  static size_t FoldHash(size_t h, const Cells& cells) {
    for (const Value& v : cells) h = FoldCellHash(h, v);
    return h;
  }

  std::vector<Value> values_;
  size_t hash_ = kEmptyTupleHash;
};

inline TupleRef::TupleRef(const Tuple& t)
    : cells_(t.values().data()), arity_(t.arity()), hash_(t.Hash()) {}

inline bool operator!=(TupleRef a, TupleRef b) { return !(a == b); }

// Convenience builder for all-integer tuples (the dominant case in tests
// and in the paper's examples).
Tuple IntTuple(std::initializer_list<int64_t> ints);

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);
std::ostream& operator<<(std::ostream& os, TupleRef t);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_TUPLE_H_
