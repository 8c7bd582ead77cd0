// Property tests for the flat relation store: the row arena, its
// SlotTable and the HashIndex buckets kept in step with row moves.
//
// Random Add / Merge / MergeNegated / EraseMatching sequences run against
// a std::map<Tuple, int64_t> oracle. After every operation the relation
// must hold exactly the oracle's entries, equal (operator== and
// RelationDigest) the same entries inserted in another order, walk them
// in the oracle's order through SortedEntries, and an IndexedRelation fed
// the same changes must keep every index bucket equal to a from-scratch
// rebuild (invariant I2 of storage/indexed_relation.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <vector>

#include "common/rng.h"
#include "relational/relation.h"
#include "relational/slot_table.h"
#include "storage/hash_index.h"
#include "storage/indexed_relation.h"

// Counts heap allocations while `counting` is set (this binary only).
namespace {
bool counting = false;
long allocations = 0;
}  // namespace

// GCC cannot see that these replacements pair malloc with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (counting) ++allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sweepmv {
namespace {

using Oracle = std::map<Tuple, int64_t>;

Schema ThreeInts() { return Schema::AllInts({"A", "B", "C"}); }

const std::vector<std::vector<int>> kIndexKeys = {{0}, {1, 2}};

void ApplyToOracle(Oracle& oracle, const Tuple& t, int64_t count) {
  int64_t& c = oracle[t];
  c += count;
  if (c == 0) oracle.erase(t);
}

// Every check the file header lists.
void ExpectMatchesOracle(const Relation& rel, const IndexedRelation& store,
                         const Oracle& oracle) {
  ASSERT_EQ(rel.DistinctSize(), oracle.size());
  for (const auto& [t, c] : oracle) ASSERT_EQ(rel.CountOf(t), c) << t;
  for (const auto& [t, c] : rel.entries()) {
    auto it = oracle.find(Tuple(t));
    ASSERT_TRUE(it != oracle.end()) << t;
    ASSERT_EQ(it->second, c) << t;
  }

  // The same entries inserted in reverse order.
  Relation reversed(rel.schema());
  for (auto it = oracle.rbegin(); it != oracle.rend(); ++it) {
    reversed.Add(it->first, it->second);
  }
  EXPECT_EQ(rel, reversed);
  EXPECT_EQ(RelationDigest(rel), RelationDigest(reversed));

  const std::vector<Relation::Entry> sorted = rel.SortedEntries();
  ASSERT_EQ(sorted.size(), oracle.size());
  size_t i = 0;
  for (const auto& [t, c] : oracle) {
    EXPECT_EQ(sorted[i].first, t);
    EXPECT_EQ(sorted[i].second, c);
    ++i;
  }

  ASSERT_EQ(store.relation(), rel);
  for (const std::vector<int>& key : kIndexKeys) {
    const HashIndex* index = store.FindIndex(key);
    ASSERT_NE(index, nullptr);
    HashIndex rebuilt(key);
    rebuilt.RebuildFrom(store.relation());
    std::set<Tuple> keys;
    for (const auto& [t, c] : store.relation().entries()) {
      keys.insert(t.Project(key));
    }
    ASSERT_EQ(index->distinct_keys(), keys.size());
    ASSERT_EQ(rebuilt.distinct_keys(), keys.size());
    size_t members = 0;
    for (const Tuple& k : keys) {
      const HashIndex::Bucket* got = index->Probe(k);
      const HashIndex::Bucket* want = rebuilt.Probe(k);
      ASSERT_NE(got, nullptr) << k;
      ASSERT_NE(want, nullptr) << k;
      std::vector<uint32_t> a(got->begin(), got->end());
      std::vector<uint32_t> b(want->begin(), want->end());
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "bucket of " << k;
      members += a.size();
    }
    ASSERT_EQ(members, store.relation().DistinctSize());
  }
}

Tuple RandomTuple(Rng& rng, int64_t domain) {
  return IntTuple({rng.Uniform(0, domain - 1), rng.Uniform(0, 3),
                   rng.Uniform(0, 3)});
}

int64_t RandomCount(Rng& rng) {
  const int64_t c = rng.Uniform(1, 3);
  return rng.Uniform(0, 1) == 0 ? c : -c;
}

TEST(RelationTableTest, RandomOpsMatchMapOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Relation rel(ThreeInts());
    IndexedRelation store{Relation(ThreeInts())};
    for (const auto& key : kIndexKeys) store.EnsureIndex(key);
    Oracle oracle;
    size_t largest = 0;
    // Grow (inserts dominate), then shrink back (deletes dominate).
    const int kOps = 900;
    for (int op = 0; op < kOps; ++op) {
      const bool growing = op < kOps / 2;
      const int64_t domain = 150;
      const int64_t kind = rng.Uniform(0, 9);
      if (kind < 6) {
        // Add: mostly new tuples while growing; mostly cancelling ones
        // (the oracle's own entries, negated) while shrinking.
        Tuple t = RandomTuple(rng, domain);
        int64_t c = RandomCount(rng);
        if (!growing && !oracle.empty()) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(
                               0, static_cast<int64_t>(oracle.size()) - 1));
          t = it->first;
          c = -it->second;
        }
        rel.Add(t, c);
        store.Add(t, c);
        ApplyToOracle(oracle, t, c);
      } else if (kind < 8) {
        // Merge or MergeNegated of a small delta: random while growing,
        // the oracle's own entries (so the subtraction cancels them)
        // while shrinking.
        Relation delta(ThreeInts());
        for (int k = rng.Uniform(1, 6); k > 0; --k) {
          if (growing || oracle.empty()) {
            delta.Add(RandomTuple(rng, domain), RandomCount(rng));
            continue;
          }
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(
                               0, static_cast<int64_t>(oracle.size()) - 1));
          if (delta.CountOf(it->first) == 0) delta.Add(it->first, it->second);
        }
        const bool negate = kind == 7 || !growing;
        if (negate) {
          rel.MergeNegated(delta);
          store.Merge(delta.Negated());
        } else {
          rel.Merge(delta);
          store.Merge(delta);
        }
        for (const auto& [t, c] : delta.entries()) {
          ApplyToOracle(oracle, Tuple(t), negate ? -c : c);
        }
      } else {
        // EraseMatching on the first column.
        const Tuple key = IntTuple({rng.Uniform(0, domain - 1)});
        Relation erased(ThreeInts());
        for (const auto& [t, c] : rel.entries()) {
          if (t.at(0) == key.at(0)) erased.Add(t, c);
        }
        EXPECT_EQ(rel.EraseMatching({0}, key), erased.DistinctSize());
        store.Merge(erased.Negated());
        for (const auto& [t, c] : erased.entries()) {
          ApplyToOracle(oracle, Tuple(t), -c);
        }
      }
      ExpectMatchesOracle(rel, store, oracle);
      if (::testing::Test::HasFatalFailure()) return;
      largest = std::max(largest, rel.DistinctSize());
    }
    // The table grew through several power-of-two sizes, and shrank.
    EXPECT_GE(largest, 300u);
    EXPECT_LT(rel.DistinctSize(), largest / 2);
  }
}

TEST(RelationTableTest, ErasingLastAndMiddleRows) {
  Relation rel(ThreeInts());
  const Tuple a = IntTuple({1, 0, 0});
  const Tuple b = IntTuple({2, 0, 0});
  const Tuple c = IntTuple({3, 0, 0});
  rel.Add(a);
  rel.Add(b);
  rel.Add(c);
  // A new tuple takes the next row id.
  EXPECT_EQ(rel.FindRow(a), 0u);
  EXPECT_EQ(rel.FindRow(c), 2u);
  // Erasing the last row moves nothing.
  rel.Add(c, -1);
  EXPECT_EQ(rel.DistinctSize(), 2u);
  EXPECT_EQ(rel.row(0), a);
  EXPECT_EQ(rel.row(1), b);
  EXPECT_EQ(rel.FindRow(c), Relation::kNoRow);
  // Erasing a middle row moves the last row into its place.
  rel.Add(a, -1);
  ASSERT_EQ(rel.DistinctSize(), 1u);
  EXPECT_EQ(rel.row(0), b);
  EXPECT_EQ(rel.FindRow(b), 0u);
  EXPECT_EQ(rel.CountOf(b), 1);
  // And erasing the only row empties the relation.
  rel.Add(b, -1);
  EXPECT_TRUE(rel.Empty());
  EXPECT_EQ(rel.CountOf(b), 0);
}

TEST(RelationTableTest, IndexFollowsRowMoves) {
  IndexedRelation store{Relation(ThreeInts())};
  store.EnsureIndex({1});
  for (int64_t i = 0; i < 6; ++i) store.Add(IntTuple({i, i % 2, 0}));
  // Erase row 0: row 5 moves into it and its bucket must say so.
  store.Add(IntTuple({0, 0, 0}), -1);
  const HashIndex* index = store.FindIndex({1});
  const HashIndex::Bucket* odd = index->Probe(IntTuple({1}));
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(std::count(odd->begin(), odd->end(), 0u), 1);
  EXPECT_EQ(std::count(odd->begin(), odd->end(), 5u), 0);
  for (uint32_t row : *odd) {
    EXPECT_EQ(store.relation().row(row).at(1), Value(1));
  }
}

TEST(RelationTableTest, EmptyRelationAllocatesNothing) {
  const Schema schema = ThreeInts();
  const Tuple probe = IntTuple({1, 2, 3});
  allocations = 0;
  counting = true;
  {
    Relation empty(schema);
    Relation copy = empty;
    Relation moved = std::move(copy);
    Relation other(schema);
    other.Merge(moved);
    other.MergeNegated(empty);
    EXPECT_EQ(other.CountOf(probe), 0);
    EXPECT_TRUE(other == empty);
    for (const auto& entry : other.entries()) (void)entry;
    SlotTable table;
    EXPECT_EQ(table.Find(probe.Hash(), [](uint32_t) { return true; }),
              SlotTable::kNone);
    Relation defaulted;
    EXPECT_TRUE(defaulted.Empty());
  }
  counting = false;
  EXPECT_EQ(allocations, 0);
}

// Stores a new id (no stored id matches).
void Insert(SlotTable& table, uint64_t hash, uint32_t id) {
  table.FindOrInsert(hash, id, [](uint32_t) { return false; });
}

// Erasing from a probe run that wraps past the table's last slot shifts
// the rest of the run back across the wrap.
TEST(RelationTableTest, BackwardShiftDeleteWrapsAround) {
  SlotTable table;
  table.Reserve(3);
  const size_t last = table.capacity() - 1;
  std::vector<uint64_t> at_last;  // hashes whose home is the last slot
  uint64_t at_zero = 0;           // a hash whose home is slot 0
  bool have_zero = false;
  for (uint64_t h = 0; at_last.size() < 3 || !have_zero; ++h) {
    if (table.Home(h) == last && at_last.size() < 3) at_last.push_back(h);
    if (table.Home(h) == 0 && !have_zero) {
      at_zero = h;
      have_zero = true;
    }
  }
  auto find = [&](uint64_t hash, uint32_t id) {
    return table.Find(hash, [&](uint32_t got) { return got == id; });
  };
  // Ids 0..2 fill the last slot, then slots 0 and 1; id 3 (home 0) lands
  // after them in slot 2.
  for (uint32_t id = 0; id < 3; ++id) Insert(table, at_last[id], id);
  Insert(table, at_zero, 3);
  EXPECT_EQ(table.LongestProbe(), 3u);
  EXPECT_EQ(table.capacity(), last + 1);

  // Erase id 0: ids 1 and 2 shift back across the wrap, and id 3 one
  // slot nearer its home.
  table.Erase(at_last[0], 0);
  EXPECT_EQ(find(at_last[0], 0), SlotTable::kNone);
  EXPECT_EQ(find(at_last[1], 1), 1u);
  EXPECT_EQ(find(at_last[2], 2), 2u);
  EXPECT_EQ(find(at_zero, 3), 3u);
  EXPECT_EQ(table.LongestProbe(), 2u);

  table.Erase(at_last[2], 2);
  table.Erase(at_last[1], 1);
  EXPECT_EQ(find(at_zero, 3), 3u);
  EXPECT_EQ(table.LongestProbe(), 1u);
  table.Erase(at_zero, 3);
  EXPECT_EQ(table.size(), 0u);
}

// std::hash<int64_t> is the identity, so tuple hashes of sequential ints
// and of tuples chosen to share their low bits would pile up in a table
// indexed by raw low bits. The finalizer spreads both.
TEST(RelationTableTest, AdversarialKeysKeepProbeRunsShort) {
  const size_t kBound = 40;

  SlotTable sequential;
  Relation rel(ThreeInts());
  for (int64_t i = 0; i < 4096; ++i) {
    const Tuple t = IntTuple({i, 0, 0});
    Insert(sequential, t.Hash(), static_cast<uint32_t>(i));
    rel.Add(t, 1);
  }
  EXPECT_LE(sequential.LongestProbe(), kBound);
  EXPECT_EQ(rel.DistinctSize(), 4096u);

  SlotTable clustered;
  Relation same_low_bits(ThreeInts());
  uint32_t id = 0;
  for (int64_t i = 0; id < 512; ++i) {
    const Tuple t = IntTuple({i, 7, 7});
    if ((t.Hash() & 0xfff) != 0x5a5) continue;
    Insert(clustered, t.Hash(), id++);
    same_low_bits.Add(t, 1);
  }
  EXPECT_LE(clustered.LongestProbe(), kBound);
  EXPECT_EQ(same_low_bits.DistinctSize(), 512u);
  for (const auto& [t, c] : same_low_bits.entries()) {
    EXPECT_EQ(same_low_bits.CountOf(t), c);
  }
}

}  // namespace
}  // namespace sweepmv
