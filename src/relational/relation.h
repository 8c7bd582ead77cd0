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

#include "common/fingerprint.h"
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

  // The entries in Tuple::operator< order, as pointers into the count
  // map: the one deterministic walk (checkpoint codec, fingerprint,
  // display, CSV). Nothing is copied; the pointers stay valid until this
  // relation is next mutated, so a temporary relation cannot be walked.
  std::vector<const CountMap::value_type*> SortedEntries() const&;
  void SortedEntries() const&& = delete;

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

// The additive multiset digest of `rel`: per lane, the sum over its
// entries of count × H_lane(tuple hash), mod 2^64 (unsigned wraparound is
// part of the definition), where H_lane is the splitmix finalizer under a
// per-lane salt. Order-free by construction, so one pass over the count
// map computes it, and additive: the digest of a ⊎ b is the lane-wise sum
// of the digests of a and b, and the empty relation's is {0, 0}. An
// incremental checker can keep a view's digest in O(|Δ|) per delta.
Fp128 RelationDigest(const Relation& rel);

// Absorbs `rel` into a state fingerprint (see common/fingerprint.h): its
// distinct size, then its RelationDigest lanes, which every interleaving
// reaching the same relation agrees on. The text dump lists the entries
// in sorted-tuple order instead.
void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel);

// Fingerprint leaves for the state lists (common/state.h). A tuple
// absorbs its hash, the same one RelationDigest sums.
inline void HashLeaf(StateHasher& h, const char* tag, const Relation& rel) {
  AbsorbRelation(h, tag, rel);
}
inline void HashLeaf(StateHasher& h, const char* tag, const Tuple& t) {
  h.U64(tag, static_cast<uint64_t>(t.Hash()));
}

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_RELATION_H_
