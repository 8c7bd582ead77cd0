// A maintained multiset hash index over one key-column set of a Relation.
//
// The index maps a key tuple (the projection of a stored tuple onto
// `key_positions`) to the bucket of relation *row ids* carrying that key.
// It copies each distinct key once and never a row, and a probe reads
// the live row, count included, through the relation.
//
// The index is passive: it does not observe the relation by itself.
// IndexedRelation (indexed_relation.h) owns both and calls OnInsert /
// OnErase / OnMove as rows appear, vanish and move. A relation erases a
// row by moving its last row into the hole (relation.h), so a move
// renumbers one row id in one bucket. Every call is O(1) amortized.

#ifndef SWEEPMV_STORAGE_HASH_INDEX_H_
#define SWEEPMV_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"
#include "relational/slot_table.h"
#include "relational/tuple.h"

namespace sweepmv {

class HashIndex {
 public:
  // Ids of the relation rows that share one key, in no particular order.
  using Bucket = std::vector<uint32_t>;

  explicit HashIndex(std::vector<int> key_positions);

  const std::vector<int>& key_positions() const { return key_positions_; }

  // Row `row` of `rel` is new. O(1) amortized.
  void OnInsert(const Relation& rel, uint32_t row);

  // Row `row` of `rel` is about to be erased: runs while its cells are
  // still there (its key is projected here). O(1) amortized.
  void OnErase(const Relation& rel, uint32_t row);

  // `rel` moved its row `from` to `to` (to fill an erased row's place):
  // row `to` now holds the moved cells. O(1) amortized.
  void OnMove(const Relation& rel, uint32_t from, uint32_t to);

  // Rows whose key equals `probe`'s cells at `probe_positions` (one per
  // key column); nullptr when none.
  const Bucket* Probe(TupleRef probe,
                      const std::vector<int>& probe_positions) const;

  // Rows whose key projection equals `key`; nullptr when none.
  const Bucket* Probe(const Tuple& key) const;

  // Drops everything and re-inserts every row of `rel`. O(|rel|).
  void RebuildFrom(const Relation& rel);

  size_t distinct_keys() const { return buckets_.size(); }

 private:
  // Whether `bucket`'s key equals `t`'s cells at `positions`, whose hash
  // is `hash`.
  bool SameKey(uint32_t bucket, TupleRef t, const std::vector<int>& positions,
               size_t hash) const;
  // The bucket whose key equals `t`'s cells at `positions`, or kNone.
  uint32_t FindBucket(TupleRef t, const std::vector<int>& positions,
                      size_t hash) const;
  uint32_t BucketOfRow(const Relation& rel, uint32_t row) const;
  TupleRef key(uint32_t bucket) const;

  std::vector<int> key_positions_;
  std::vector<int> key_columns_;  // 0..k-1: a stored key's own positions
  // Per bucket, by dense bucket id: its key's cells (row-major, k per
  // bucket), the key's hash and its rows. Removing a bucket moves the
  // last one into its place.
  std::vector<Value> key_cells_;
  std::vector<size_t> key_hashes_;
  std::vector<Bucket> buckets_;
  // Per relation row id: its position within its bucket.
  std::vector<uint32_t> slot_in_bucket_;
  SlotTable table_;  // key hash -> bucket id
};

}  // namespace sweepmv

#endif  // SWEEPMV_STORAGE_HASH_INDEX_H_
