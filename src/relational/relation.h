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
//
// Storage is flat. Each distinct tuple is a *row*, numbered densely from
// 0: its cells sit in one row-major arena whose stride is the schema's
// arity, next to its count and its Tuple::Hash(), and a SlotTable
// (slot_table.h) finds a row by its hash. A new tuple takes the next row
// id; erasing a row moves the last row into its place. So row ids, and the
// order entries() walks, are an artifact of history: only SortedEntries()
// is a deterministic walk, and operator== and RelationDigest ignore order.
//
// The arity-0 schema checks no tuple, so such a relation may hold tuples
// of any arity; it keeps each row as its own Tuple instead of in the
// arena.

#ifndef SWEEPMV_RELATIONAL_RELATION_H_
#define SWEEPMV_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.h"
#include "relational/schema.h"
#include "relational/slot_table.h"
#include "relational/tuple.h"

namespace sweepmv {

class Relation {
 public:
  // A row's tuple and count. The tuple views the relation's storage and
  // stays valid until the relation is next mutated.
  using Entry = std::pair<TupleRef, int64_t>;

  static constexpr uint32_t kNoRow = SlotTable::kNone;

  // The rows in row-id order.
  class RowRange {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Entry;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Entry;

      iterator(const Relation* rel, uint32_t row) : rel_(rel), row_(row) {}
      Entry operator*() const { return {rel_->row(row_), rel_->count(row_)}; }
      iterator& operator++() {
        ++row_;
        return *this;
      }
      bool operator==(const iterator& other) const {
        return row_ == other.row_;
      }
      bool operator!=(const iterator& other) const {
        return row_ != other.row_;
      }

     private:
      const Relation* rel_;
      uint32_t row_;
    };

    explicit RowRange(const Relation* rel) : rel_(rel) {}
    iterator begin() const { return {rel_, 0}; }
    iterator end() const {
      return {rel_, static_cast<uint32_t>(rel_->DistinctSize())};
    }

   private:
    const Relation* rel_;
  };

  Relation() = default;
  explicit Relation(Schema schema);
  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  // A moved-from relation is empty, with the arity-0 schema.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  // Builds a positive-count relation from a list of all-int tuples; the
  // dominant shape in tests and the paper's examples.
  static Relation OfInts(Schema schema,
                         std::initializer_list<std::initializer_list<int64_t>>
                             rows);

  const Schema& schema() const { return schema_; }

  // Adds `count` occurrences of `t` (negative to delete). Erases the entry
  // if the resulting count is zero. The tuple must match the schema.
  void Add(TupleRef t, int64_t count = 1);

  // Adds `count` occurrences of a ++ b, a join's output row, without
  // building the tuple; its hash continues a's as Tuple::Concat does.
  // Checks arity only: the caller checked once that this schema's types
  // are those of a's relation followed by b's.
  void AddConcat(TupleRef a, TupleRef b, int64_t count);

  // Adds `count` occurrences of t's projection onto `positions`. Checks
  // arity only: the caller checked once that this schema's types are the
  // projected ones.
  void AddProjection(TupleRef t, const std::vector<int>& positions,
                     int64_t count);

  // Count of `t` (0 if absent).
  int64_t CountOf(TupleRef t) const;

  bool Contains(TupleRef t) const { return CountOf(t) != 0; }

  // True if no tuple has a nonzero count.
  bool Empty() const { return meta_.empty(); }

  // Number of distinct tuples with nonzero count.
  size_t DistinctSize() const { return meta_.size(); }

  // Sum of counts (can be negative for deltas).
  int64_t TotalCount() const;

  // Sum of |count| — the "payload volume" a message carrying this relation
  // represents.
  int64_t AbsoluteCount() const;

  // True if any tuple has a negative count (a view in a consistent state
  // never does; deltas routinely do).
  bool HasNegative() const;

  // Adds every (tuple, count) of `other` into this relation. Schemas must
  // agree on arity/types; that is checked once, not per tuple, when
  // `other`'s schema checked its tuples on entry. The rvalue form leaves
  // `other` empty, and takes its storage outright when this relation is
  // empty.
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

  // Every (tuple, count), in row-id order: an artifact of history, so any
  // fold over it that reaches a digest, checkpoint or log must be
  // commutative.
  RowRange entries() const { return RowRange(this); }

  // Row access for the storage layer and the operators. Row ids are dense
  // in [0, DistinctSize()).
  TupleRef row(uint32_t r) const {
    return stride_ != 0 ? TupleRef(cells_.data() + size_t{r} * stride_,
                                   stride_, meta_[r].hash)
                        : TupleRef(ragged_[r]);
  }
  int64_t count(uint32_t r) const { return meta_[r].count; }

  // The row holding `t`, or kNoRow.
  uint32_t FindRow(TupleRef t) const;

  // The entries in Tuple::operator< order: the one deterministic walk
  // (checkpoint codec, fingerprint, display). The tuples view this
  // relation and stay valid until it is next mutated, so a temporary
  // relation cannot be walked.
  std::vector<Entry> SortedEntries() const&;
  void SortedEntries() const&& = delete;

  // Two relations are equal iff they hold the same tuple->count map, in
  // any row order. (Schema attribute names are display metadata and not
  // compared.)
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  // "{(1,3)[1], (2,3)[2]}" — counts in brackets as in the paper's Figure 5.
  std::string ToDisplayString() const;

 private:
  struct RowMeta {
    size_t hash;
    int64_t count;
  };

  // True if row `r` holds `cells` (`hash` is their tuple hash).
  bool RowHolds(uint32_t r, const Value* cells, size_t arity,
                size_t hash) const;

  // The id the next new row takes.
  uint32_t NextRowId() const;

  // Adds `count` to `t`, checking it against the schema if `check` and
  // it is new.
  void AddRow(TupleRef t, int64_t count, bool check);

  // Makes room in the arena for one more row's cells.
  void ReserveRow();

  // The staged row, the `stride_` cells past the last row in the arena,
  // gains `count`: it becomes a new row if absent, else its cells are
  // dropped and the matching row's count moves.
  void CommitStaged(size_t hash, int64_t count);

  // Adds `count` to row `r`; erases it at zero.
  void AddToRow(uint32_t r, int64_t count);

  // Erases row `r`: the last row moves into its place.
  void EraseRow(uint32_t r);

  void MergeScaled(const Relation& other, int64_t sign);
  void ClearRows();
  void CheckMatches(TupleRef t) const;

  Schema schema_;
  uint32_t stride_ = 0;          // cells per row: the schema's arity
  std::vector<Value> cells_;     // row-major, stride_ cells per row
  std::vector<RowMeta> meta_;    // per row: tuple hash and count
  std::vector<Tuple> ragged_;    // per row, for the arity-0 schema only
  SlotTable table_;              // row hash -> row id
};

std::ostream& operator<<(std::ostream& os, const Relation& r);

// The additive multiset digest of `rel`: per lane, the sum over its
// entries of count × H_lane(tuple hash), mod 2^64 (unsigned wraparound is
// part of the definition), where H_lane is the splitmix finalizer under a
// per-lane salt. Order-free by construction, so one pass over the rows
// computes it, and additive: the digest of a ⊎ b is the lane-wise sum
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
