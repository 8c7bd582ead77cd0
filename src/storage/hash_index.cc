#include "storage/hash_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace sweepmv {

HashIndex::HashIndex(std::vector<int> key_positions)
    : key_positions_(std::move(key_positions)),
      key_columns_(key_positions_.size()) {
  SWEEP_CHECK_MSG(!key_positions_.empty(),
                  "an index needs at least one key column");
  std::iota(key_columns_.begin(), key_columns_.end(), 0);
}

TupleRef HashIndex::key(uint32_t bucket) const {
  const size_t k = key_positions_.size();
  return TupleRef(key_cells_.data() + bucket * k, k, key_hashes_[bucket]);
}

bool HashIndex::SameKey(uint32_t bucket, TupleRef t,
                        const std::vector<int>& positions,
                        size_t hash) const {
  return key_hashes_[bucket] == hash &&
         key(bucket).SameAt(key_columns_, t, positions);
}

uint32_t HashIndex::FindBucket(TupleRef t, const std::vector<int>& positions,
                               size_t hash) const {
  return table_.Find(hash, [&](uint32_t b) {
    return SameKey(b, t, positions, hash);
  });
}

uint32_t HashIndex::BucketOfRow(const Relation& rel, uint32_t row) const {
  const TupleRef t = rel.row(row);
  const uint32_t b =
      FindBucket(t, key_positions_, t.ProjectionHash(key_positions_));
  SWEEP_CHECK_MSG(b != SlotTable::kNone,
                  "erasing a tuple the index never saw");
  return b;
}

void HashIndex::OnInsert(const Relation& rel, uint32_t row) {
  const TupleRef t = rel.row(row);
  const size_t hash = t.ProjectionHash(key_positions_);
  const auto fresh = static_cast<uint32_t>(buckets_.size());
  const uint32_t b = table_.FindOrInsert(hash, fresh, [&](uint32_t id) {
    return SameKey(id, t, key_positions_, hash);
  });
  if (b == fresh) {
    for (int pos : key_positions_) {
      key_cells_.push_back(t.at(static_cast<size_t>(pos)));
    }
    key_hashes_.push_back(hash);
    buckets_.emplace_back();
  }
  if (row >= slot_in_bucket_.size()) slot_in_bucket_.resize(row + 1);
  slot_in_bucket_[row] = static_cast<uint32_t>(buckets_[b].size());
  buckets_[b].push_back(row);
}

void HashIndex::OnErase(const Relation& rel, uint32_t row) {
  const uint32_t b = BucketOfRow(rel, row);
  Bucket& bucket = buckets_[b];
  const uint32_t slot = slot_in_bucket_[row];
  SWEEP_CHECK(slot < bucket.size() && bucket[slot] == row);
  bucket[slot] = bucket.back();
  slot_in_bucket_[bucket[slot]] = slot;
  bucket.pop_back();
  if (!bucket.empty()) return;

  // The bucket is empty: move the last bucket into its place.
  table_.Erase(key_hashes_[b], b);
  const auto last = static_cast<uint32_t>(buckets_.size() - 1);
  const size_t k = key_positions_.size();
  if (b != last) {
    std::copy_n(key_cells_.begin() + last * k, k, key_cells_.begin() + b * k);
    key_hashes_[b] = key_hashes_[last];
    buckets_[b] = std::move(buckets_[last]);
    table_.Rename(key_hashes_[b], last, b);
  }
  key_cells_.resize(key_cells_.size() - k);
  key_hashes_.pop_back();
  buckets_.pop_back();
}

void HashIndex::OnMove(const Relation& rel, uint32_t from, uint32_t to) {
  Bucket& bucket = buckets_[BucketOfRow(rel, to)];
  const uint32_t slot = slot_in_bucket_[from];
  SWEEP_CHECK(slot < bucket.size() && bucket[slot] == from);
  bucket[slot] = to;
  slot_in_bucket_[to] = slot;
}

const HashIndex::Bucket* HashIndex::Probe(
    TupleRef probe, const std::vector<int>& probe_positions) const {
  const uint32_t b = FindBucket(probe, probe_positions,
                                probe.ProjectionHash(probe_positions));
  return b == SlotTable::kNone ? nullptr : &buckets_[b];
}

const HashIndex::Bucket* HashIndex::Probe(const Tuple& key) const {
  if (key.arity() != key_columns_.size()) return nullptr;
  return Probe(key, key_columns_);
}

void HashIndex::RebuildFrom(const Relation& rel) {
  key_cells_.clear();
  key_hashes_.clear();
  buckets_.clear();
  slot_in_bucket_.assign(rel.DistinctSize(), 0);
  table_.Clear();
  table_.Reserve(rel.DistinctSize());
  for (uint32_t row = 0; row < rel.DistinctSize(); ++row) OnInsert(rel, row);
}

}  // namespace sweepmv
