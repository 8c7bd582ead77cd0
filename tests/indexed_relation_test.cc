// Storage-engine unit and property tests: HashIndex bucket maintenance,
// IndexedRelation invariants I1-I3 (see storage/indexed_relation.h), the
// IndexCatalog key-selection rule, and indexed-vs-scan equality of the
// ExtendLeft/ExtendRight query entry points.

#include "storage/indexed_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "relational/partial_delta.h"
#include "relational/view_def.h"
#include "storage/index_catalog.h"
#include "storage/indexed_ops.h"
#include "test_util.h"

namespace sweepmv {
namespace {

Schema TwoCols() { return Schema::AllInts({"A", "B"}); }

// Recomputes what an index over `key` must contain and compares bucket by
// bucket against the maintained one.
void ExpectIndexConsistent(const IndexedRelation& store,
                           const std::vector<int>& key) {
  const HashIndex* index = store.FindIndex(key);
  ASSERT_NE(index, nullptr);
  size_t entries_in_buckets = 0;
  for (const auto& [t, c] : store.relation().entries()) {
    const HashIndex::Bucket* bucket = index->Probe(t.Project(key));
    ASSERT_NE(bucket, nullptr) << "no bucket for " << t.ToDisplayString();
    const uint32_t entry = store.relation().FindRow(t);
    EXPECT_TRUE(std::count(bucket->begin(), bucket->end(), entry) == 1)
        << t.ToDisplayString() << " missing from its bucket";
  }
  // No stale entries: every bucket member must be a live relation entry.
  for (const auto& [t, c] : store.relation().entries()) {
    const HashIndex::Bucket* bucket = index->Probe(t.Project(key));
    for (const uint32_t entry : *bucket) {
      ASSERT_LT(entry, store.relation().DistinctSize());
      EXPECT_EQ(store.relation().row(entry).Project(key), t.Project(key));
      EXPECT_EQ(store.relation().CountOf(store.relation().row(entry)),
                store.relation().count(entry));
      entries_in_buckets += 1;
    }
  }
  // Each distinct tuple appears in exactly one bucket, so summing bucket
  // members over all tuples multi-counts by bucket size; instead check
  // total distinct keys is sane.
  EXPECT_LE(index->distinct_keys(), store.relation().DistinctSize());
  (void)entries_in_buckets;
}

TEST(HashIndexTest, InsertProbeErase) {
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  store.Add(IntTuple({1, 7}));
  store.Add(IntTuple({2, 7}));
  store.Add(IntTuple({3, 8}));

  const HashIndex* index = store.FindIndex({1});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->distinct_keys(), 2u);
  const HashIndex::Bucket* bucket = index->Probe(IntTuple({7}));
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ(index->Probe(IntTuple({9})), nullptr);

  // Count bump keeps the same node; vanishing erases the bucket entry.
  store.Add(IntTuple({1, 7}));
  EXPECT_EQ(index->Probe(IntTuple({7}))->size(), 2u);
  store.Add(IntTuple({1, 7}), -2);
  EXPECT_EQ(index->Probe(IntTuple({7}))->size(), 1u);
  store.Add(IntTuple({2, 7}), -1);
  EXPECT_EQ(index->Probe(IntTuple({7})), nullptr);
}

TEST(IndexedRelationTest, EnsureIndexIsIdempotent) {
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  store.EnsureIndex({1});
  EXPECT_EQ(store.num_indexes(), 1u);
  EXPECT_EQ(store.index_builds(), 1);
  store.EnsureIndex({0, 1});
  EXPECT_EQ(store.num_indexes(), 2u);
}

// I1 + I2: a random add/delete stream leaves relation() identical to an
// unindexed Relation fed the same stream, with every index consistent.
TEST(IndexedRelationTest, RandomStreamKeepsIndexesConsistent) {
  Rng rng(1234);
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({0});
  store.EnsureIndex({1});
  Relation shadow(TwoCols());

  for (int step = 0; step < 2000; ++step) {
    Tuple t = IntTuple({rng.Uniform(0, 20), rng.Uniform(0, 5)});
    int64_t count;
    if (shadow.Contains(t) && rng.Bernoulli(0.5)) {
      // Delete up to the full multiplicity (never below zero, like a
      // base relation under real transactions).
      count = -rng.Uniform(1, shadow.CountOf(t));
    } else {
      count = rng.Uniform(1, 3);
    }
    store.Add(t, count);
    shadow.Add(t, count);
    if (step % 250 == 0) {
      ASSERT_EQ(store.relation(), shadow);
      ExpectIndexConsistent(store, {0});
      ExpectIndexConsistent(store, {1});
    }
  }
  EXPECT_EQ(store.relation(), shadow);
  ExpectIndexConsistent(store, {0});
  ExpectIndexConsistent(store, {1});
}

// I3: rebuilding from the relation (crash recovery) restores the same
// probe results as incremental maintenance produced.
TEST(IndexedRelationTest, RebuildMatchesIncrementalMaintenance) {
  Rng rng(99);
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  for (int i = 0; i < 300; ++i) {
    // Signed counts are fine: indexes track every nonzero entry, delta
    // relations included.
    store.Add(IntTuple({rng.Uniform(0, 40), rng.Uniform(0, 6)}),
              rng.Bernoulli(0.3) ? -1 : 1);
  }
  // Snapshot probe results per key value.
  const HashIndex* index = store.FindIndex({1});
  std::vector<size_t> sizes_before;
  for (int64_t k = 0; k < 6; ++k) {
    const HashIndex::Bucket* b = index->Probe(IntTuple({k}));
    sizes_before.push_back(b == nullptr ? 0 : b->size());
  }
  const int64_t builds_before = store.index_builds();
  store.RebuildIndexes();
  EXPECT_EQ(store.index_builds(), builds_before + 1);
  index = store.FindIndex({1});
  for (int64_t k = 0; k < 6; ++k) {
    const HashIndex::Bucket* b = index->Probe(IntTuple({k}));
    EXPECT_EQ(b == nullptr ? 0 : b->size(),
              sizes_before[static_cast<size_t>(k)]);
  }
  ExpectIndexConsistent(store, {1});
}

TEST(IndexCatalogTest, ChainKeySelectionRule) {
  // Paper view: R1[A,B] ⋈(B=C) R2[C,D] ⋈(D=E) R3[E,F].
  ViewDef view = testing_util::PaperView();
  IndexCatalog catalog(view);
  // R1 is only ever a left-extension target: key = its side of B=C.
  ASSERT_EQ(catalog.key_sets(0).size(), 1u);
  EXPECT_EQ(catalog.key_sets(0)[0], (std::vector<int>{1}));
  // R2 serves both directions; both conditions land on distinct columns.
  ASSERT_EQ(catalog.key_sets(1).size(), 2u);
  EXPECT_EQ(catalog.key_sets(1)[0], (std::vector<int>{0}));  // right ext
  EXPECT_EQ(catalog.key_sets(1)[1], (std::vector<int>{1}));  // left ext
  // R3 is only ever a right-extension target.
  ASSERT_EQ(catalog.key_sets(2).size(), 1u);
  EXPECT_EQ(catalog.key_sets(2)[0], (std::vector<int>{0}));
}

TEST(IndexCatalogTest, DeduplicatesSharedKeyColumns) {
  // Interior relation whose two chain conditions use the same column.
  ViewDef view = ViewDef::Builder()
                     .AddRelation("R0", Schema::AllInts({"A", "B"}))
                     .AddRelation("R1", Schema::AllInts({"C"}))
                     .AddRelation("R2", Schema::AllInts({"D", "E"}))
                     .JoinOn(0, 1, 0)
                     .JoinOn(1, 0, 0)
                     .Build();
  IndexCatalog catalog(view);
  ASSERT_EQ(catalog.key_sets(1).size(), 1u);
  EXPECT_EQ(catalog.key_sets(1)[0], (std::vector<int>{0}));
}

TEST(IndexCatalogTest, CrossProductLinkYieldsNoKeySet) {
  ViewDef view = ViewDef::Builder()
                     .AddRelation("R0", Schema::AllInts({"A"}))
                     .AddRelation("R1", Schema::AllInts({"B"}))
                     .Build();
  IndexCatalog catalog(view);
  EXPECT_TRUE(catalog.key_sets(0).empty());
  EXPECT_TRUE(catalog.key_sets(1).empty());
}

// Indexed extension operators must be bit-identical to the scan path,
// including over deltas with negative counts.
TEST(IndexedOpsTest, ExtensionsMatchScanJoin) {
  ViewDef view = testing_util::PaperView();
  Rng rng(7);
  Relation r2(view.rel_schema(1));
  for (int i = 0; i < 200; ++i) {
    r2.Add(IntTuple({rng.Uniform(0, 8), rng.Uniform(0, 8)}),
           rng.Uniform(1, 2));
  }
  IndexedRelation store(r2);
  IndexCatalog catalog(view);
  for (const auto& key : catalog.key_sets(1)) store.EnsureIndex(key);

  // A mixed-sign ΔR1 sweeping right into R2.
  Relation delta(view.rel_schema(0));
  for (int i = 0; i < 10; ++i) {
    delta.Add(IntTuple({rng.Uniform(0, 4), rng.Uniform(0, 8)}),
              rng.Bernoulli(0.4) ? -1 : 1);
  }
  PartialDelta pd = PartialDelta::ForRelation(view, 0, delta);
  StorageStats stats;
  PartialDelta indexed = ExtendRightIndexed(view, pd, store, &stats);
  PartialDelta scanned = ExtendRight(view, pd, r2);
  EXPECT_EQ(indexed.rel, scanned.rel);
  EXPECT_EQ(indexed.lo, scanned.lo);
  EXPECT_EQ(indexed.hi, scanned.hi);
  EXPECT_EQ(stats.index_probes, 10);
  EXPECT_EQ(stats.scan_fallbacks, 0);

  // A ΔR3 sweeping left into R2.
  Relation delta3(view.rel_schema(2));
  for (int i = 0; i < 10; ++i) {
    delta3.Add(IntTuple({rng.Uniform(0, 8), rng.Uniform(0, 4)}),
              rng.Bernoulli(0.4) ? -1 : 1);
  }
  PartialDelta pd3 = PartialDelta::ForRelation(view, 2, delta3);
  StorageStats stats3;
  PartialDelta indexed3 = ExtendLeftIndexed(view, store, pd3, &stats3);
  PartialDelta scanned3 = ExtendLeft(view, r2, pd3);
  EXPECT_EQ(indexed3.rel, scanned3.rel);
  EXPECT_EQ(stats3.scan_fallbacks, 0);
  EXPECT_GT(stats3.index_matches + 1, 0);
}

TEST(IndexedOpsTest, MissingIndexFallsBackToScan) {
  ViewDef view = testing_util::PaperView();
  IndexedRelation store{
      Relation::OfInts(view.rel_schema(1), {{3, 7}, {4, 7}})};
  // No EnsureIndex call: the probe must fall back and still be right.
  PartialDelta pd = PartialDelta::ForRelation(
      view, 0, Relation::OfInts(view.rel_schema(0), {{1, 3}}));
  StorageStats stats;
  PartialDelta indexed = ExtendRightIndexed(view, pd, store, &stats);
  EXPECT_EQ(indexed.rel, ExtendRight(view, pd, store.relation()).rel);
  EXPECT_EQ(stats.scan_fallbacks, 1);
  EXPECT_EQ(stats.index_probes, 0);
}

}  // namespace
}  // namespace sweepmv
