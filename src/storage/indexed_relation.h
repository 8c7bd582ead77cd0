// IndexedRelation: a base relation with maintained hash indexes.
//
// Every incremental query a source answers (SWEEP, Nested/Parallel/
// Pipelined SWEEP, Strobe and C-Strobe all share the QueryRequest path)
// joins a small delta against the *entire* local relation. A plain hash
// join rebuilds its table from scratch per query — O(|R|) per sweep hop
// even when |ΔR| = 1. IndexedRelation keeps one multiset hash index per
// declared join-key column set and maintains all of them incrementally:
// each insert/delete touches each index O(1) amortized, so a probe-side
// query costs O(|Δ| · matches) instead of O(|R|).
//
// Invariants (tested in tests/indexed_relation_test.cc; I2 also after
// every step of random sequences in tests/relation_table_test.cc):
//   I1  relation() is bit-identical to a Relation that received the same
//       Add/Merge sequence — indexes never change query *results*.
//   I2  for every maintained index and every stored tuple t with nonzero
//       count, the index bucket of t's key projection contains exactly the
//       ids of the relation rows whose projection equals that key (no
//       more, no fewer, no stale ids). The relation erases a row by moving
//       its last row into the hole; every such move is forwarded to every
//       index, which renumbers the moved row.
//   I3  indexes are a pure cache: RebuildIndexes() from relation() (the
//       crash-recovery path — indexes are volatile, the relation and the
//       StateLog are the durable store) restores exactly the same buckets.

#ifndef SWEEPMV_STORAGE_INDEXED_RELATION_H_
#define SWEEPMV_STORAGE_INDEXED_RELATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "relational/relation.h"
#include "storage/hash_index.h"

namespace sweepmv {

// Per-site storage-engine counters, surfaced through RunResult so the
// benches can show the indexed/scan difference.
struct StorageStats {
  int64_t index_probes = 0;     // bucket lookups while answering queries
  int64_t index_matches = 0;    // tuples emitted from index probes
  int64_t scan_fallbacks = 0;   // extensions answered by a full-scan join
  int64_t index_builds = 0;     // full index (re)builds: setup + recovery
  int64_t indexes_maintained = 0;  // live indexes across the site

  void MergeFrom(const StorageStats& other);
};

class IndexedRelation {
 public:
  IndexedRelation() = default;
  explicit IndexedRelation(Relation initial) : rel_(std::move(initial)) {}

  const Relation& relation() const { return rel_; }
  const Schema& schema() const { return rel_.schema(); }

  // Declares a maintained index over `key_positions`, building it from
  // the current contents in O(|R|). Idempotent per key set.
  void EnsureIndex(const std::vector<int>& key_positions);

  // The index over exactly `key_positions`, or nullptr.
  const HashIndex* FindIndex(const std::vector<int>& key_positions) const;

  size_t num_indexes() const { return indexes_.size(); }

  // Mutations. All indexes are kept consistent in O(1) amortized per
  // distinct tuple touched.
  void Add(TupleRef t, int64_t count = 1);
  void Merge(const Relation& delta);

  // Crash recovery: indexes are volatile, the relation is durable. Drops
  // and rebuilds every index from the current relation contents.
  void RebuildIndexes();

  // Snapshot support (schedule-space explorer): replaces the relation
  // with `snapshot` and rebuilds the declared indexes from it. Unlike
  // crash recovery, the rebuild does not count toward index_builds() —
  // restoring must leave every schedule-determined counter exactly as a
  // from-scratch replay of the same prefix would.
  void RestoreRelation(Relation snapshot);

  // Build counters (probe counters live with the query path; see
  // storage/indexed_ops.h).
  int64_t index_builds() const { return index_builds_; }
  StorageStats stats() const;

 private:
  Relation rel_;
  // unique_ptr: FindIndex hands out pointers that a later EnsureIndex,
  // which may reallocate the vector, must not invalidate.
  std::vector<std::unique_ptr<HashIndex>> indexes_;
  int64_t index_builds_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_STORAGE_INDEXED_RELATION_H_
