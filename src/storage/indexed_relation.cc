#include "storage/indexed_relation.h"

#include <memory>

#include "common/check.h"

namespace sweepmv {

void StorageStats::MergeFrom(const StorageStats& other) {
  index_probes += other.index_probes;
  index_matches += other.index_matches;
  scan_fallbacks += other.scan_fallbacks;
  index_builds += other.index_builds;
  indexes_maintained += other.indexes_maintained;
}

void IndexedRelation::EnsureIndex(const std::vector<int>& key_positions) {
  for (int pos : key_positions) {
    SWEEP_CHECK(pos >= 0 &&
                static_cast<size_t>(pos) < rel_.schema().arity());
  }
  if (FindIndex(key_positions) != nullptr) return;
  auto index = std::make_unique<HashIndex>(key_positions);
  index->RebuildFrom(rel_);
  ++index_builds_;
  indexes_.push_back(std::move(index));
}

const HashIndex* IndexedRelation::FindIndex(
    const std::vector<int>& key_positions) const {
  for (const auto& index : indexes_) {
    if (index->key_positions() == key_positions) return index.get();
  }
  return nullptr;
}

void IndexedRelation::Add(TupleRef t, int64_t count) {
  if (count == 0) return;
  const uint32_t row = rel_.FindRow(t);
  if (row == Relation::kNoRow) {
    rel_.Add(t, count);  // a new tuple takes the next row id
    const auto added = static_cast<uint32_t>(rel_.DistinctSize() - 1);
    for (const auto& index : indexes_) index->OnInsert(rel_, added);
    return;
  }
  if (rel_.count(row) + count != 0) {
    // The row stays, and so does every index's entry for it; the new
    // count is read through the row.
    rel_.Add(t, count);
    return;
  }
  // The row is about to vanish: unhook it from every index while its
  // cells are still there. Erasing it moves the last row into its place;
  // renumber that row in every index.
  for (const auto& index : indexes_) index->OnErase(rel_, row);
  rel_.Add(t, count);
  const auto last = static_cast<uint32_t>(rel_.DistinctSize());
  if (row == last) return;
  for (const auto& index : indexes_) index->OnMove(rel_, last, row);
}

void IndexedRelation::Merge(const Relation& delta) {
  for (const auto& [t, c] : delta.entries()) Add(t, c);
}

void IndexedRelation::RebuildIndexes() {
  for (const auto& index : indexes_) {
    index->RebuildFrom(rel_);
    ++index_builds_;
  }
}

void IndexedRelation::RestoreRelation(Relation snapshot) {
  rel_ = std::move(snapshot);
  for (const auto& index : indexes_) index->RebuildFrom(rel_);
}

StorageStats IndexedRelation::stats() const {
  StorageStats stats;
  stats.index_builds = index_builds_;
  stats.indexes_maintained = static_cast<int64_t>(indexes_.size());
  return stats;
}

}  // namespace sweepmv
