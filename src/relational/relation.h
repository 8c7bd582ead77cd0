// Bag relations with signed multiplicity counts.
//
// This is the core algebraic object of the reproduction. Following the
// paper (Section 2) and the counting algorithm of Gupta–Mumick–Subrahmanian
// [GMS93], a relation maps each distinct tuple to a signed 64-bit count:
//
//   * A base relation or materialized view has strictly positive counts
//     ("in how many ways can this tuple be derived").
//   * A delta (ΔR, ΔV) uses positive counts for insertions and negative
//     counts for deletions; a modify is a delete plus an insert.
//
// Joins multiply counts, projection sums them, and applying a delta adds
// counts and erases zeros. This algebra is what makes SWEEP's *local*
// compensation sound, e.g. {-(2,3)} ⋈ {-(3,7,8)} = {+(2,3,7,8)} in the
// paper's Section 5.2 walk-through.

#ifndef SWEEPMV_RELATIONAL_RELATION_H_
#define SWEEPMV_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace sweepmv {

class Relation {
 public:
  using CountMap = std::unordered_map<Tuple, int64_t, TupleHash>;

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  // Builds a positive-count relation from a list of all-int tuples; the
  // dominant shape in tests and the paper's examples.
  static Relation OfInts(Schema schema,
                         std::initializer_list<std::initializer_list<int64_t>>
                             rows);

  const Schema& schema() const { return schema_; }

  // Adds `count` occurrences of `t` (negative to delete). Erases the entry
  // if the resulting count is zero. The tuple must match the schema. The
  // rvalue form moves a tuple absent from the relation into its new entry.
  void Add(const Tuple& t, int64_t count = 1);
  void Add(Tuple&& t, int64_t count = 1);

  // Count of `t` (0 if absent).
  int64_t CountOf(const Tuple& t) const;

  bool Contains(const Tuple& t) const { return CountOf(t) != 0; }

  // True if no tuple has a nonzero count.
  bool Empty() const { return counts_.empty(); }

  // Number of distinct tuples with nonzero count.
  size_t DistinctSize() const { return counts_.size(); }

  // Sum of counts (can be negative for deltas).
  int64_t TotalCount() const;

  // Sum of |count| — the "payload volume" a message carrying this relation
  // represents.
  int64_t AbsoluteCount() const;

  // True if any tuple has a negative count (a view in a consistent state
  // never does; deltas routinely do).
  bool HasNegative() const;

  // Adds every (tuple, count) of `other` into this relation. Schemas must
  // agree on arity/types. The rvalue form splices `other`'s entries across
  // (a tuple absent here costs no allocation) and leaves `other` empty.
  void Merge(const Relation& other);
  void Merge(Relation&& other);

  // Subtracts: Merge with all of `other`'s counts negated.
  void MergeNegated(const Relation& other);

  // Returns a copy with all counts negated.
  Relation Negated() const;

  // Removes every tuple whose projection onto `positions` equals `key`.
  // This is the "key delete" primitive the Strobe family relies on.
  // Returns the number of distinct tuples removed.
  size_t EraseMatching(const std::vector<int>& positions, const Tuple& key);

  // Clamps every count to at most 1 (set semantics; used by the Strobe
  // family, which assumes unique keys and suppresses duplicates).
  void ClampToSet();

  const CountMap& entries() const { return counts_; }

  // Pointer to the stored (tuple, count) entry, or nullptr if absent.
  // Stable across other insertions/erasures and across rehashing
  // (unordered_map node stability) — the storage layer's hash indexes
  // (src/storage/) point at these entries instead of copying tuples.
  const CountMap::value_type* FindEntry(const Tuple& t) const {
    auto it = counts_.find(t);
    return it == counts_.end() ? nullptr : &*it;
  }

  // Deterministic (sorted by tuple) snapshot of the entries; use for
  // display and for order-insensitive comparisons in tests.
  std::vector<std::pair<Tuple, int64_t>> SortedEntries() const;

  // Two relations are equal iff they hold the same tuple->count map.
  // (Schema attribute names are display metadata and not compared.)
  bool operator==(const Relation& other) const {
    return counts_ == other.counts_;
  }
  bool operator!=(const Relation& other) const { return !(*this == other); }

  // "{(1,3)[1], (2,3)[2]}" — counts in brackets as in the paper's Figure 5.
  std::string ToDisplayString() const;

 private:
  template <typename T>
  void AddImpl(T&& t, int64_t count);

  Schema schema_;
  CountMap counts_;
};

std::ostream& operator<<(std::ostream& os, const Relation& r);

class StateHasher;

// Absorbs `rel` into a state fingerprint in sorted-tuple order (see
// common/fingerprint.h) — the canonical form every interleaving agrees on.
void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel);

// Fingerprint leaf for the state lists (common/state.h).
inline void HashLeaf(StateHasher& h, const char* tag, const Relation& rel) {
  AbsorbRelation(h, tag, rel);
}

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_RELATION_H_
