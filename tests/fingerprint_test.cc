// State fingerprints (src/common/fingerprint.h, src/common/state.h) and
// the relation digest they absorb (AbsorbRelation, relational/relation.h).
//
// The explorer prunes a subtree when its canonical fingerprint is already
// in the visited table. That is only sound if the fingerprint is a pure
// function of the logical state: independent of the process that computed
// it, of the order a relation's entries were inserted in, and of the
// count map's bucket layout. It is only useful if two different states
// digest differently, which needs the absorbed stream to decode
// unambiguously.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.h"
#include "common/state.h"
#include "relational/relation.h"
#include "verify/controlled_run.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

// --- Whole-system fingerprints --------------------------------------------

TEST(FingerprintTest, IndependentOfProcessHistory) {
  // Two separately constructed systems driven through the same schedule
  // must agree on the fingerprint at every step — nothing address- or
  // allocation-order-dependent may leak into the hash.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kStrobe);
  ReplayScheduler sched_a(std::vector<size_t>{1});
  ReplayScheduler sched_b(std::vector<size_t>{1});
  ControlledSystem a(scenario, &sched_a);
  ControlledSystem b(scenario, &sched_b);
  for (int step = 0; step < 12; ++step) {
    Fp128 fa, fb;
    a.HashState(&fa);
    b.HashState(&fb);
    EXPECT_EQ(fa, fb) << step;
    EXPECT_EQ(a.CanonicalDebugDump(), b.CanonicalDebugDump()) << step;
    if (a.Drained()) break;
    ASSERT_EQ(a.Run(1), 1);
    ASSERT_EQ(b.Run(1), 1);
  }
}

TEST(FingerprintTest, ConvergingInterleavingsCollide) {
  // Dedup only ever fires when two different schedules hash to the same
  // fingerprint, and verify_on_hit re-explores every hit subtree and
  // asserts (SWEEP_CHECK) the recomputed summary matches the cached one.
  // A run with hits > 0 therefore certifies both that interleaving
  // diamonds really collide and that colliding states really are
  // equivalent.
  ExplorerConfig config{PaperExampleScenario(Algorithm::kSweep),
                        ConsistencyLevel::kComplete,
                        /*sleep_sets=*/false,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  config.dedup_states = true;
  config.verify_on_hit = true;
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.dedup_hits, 0);
}

// --- Relation digests -----------------------------------------------------

Fp128 DigestOf(const Relation& rel) {
  StateHasher h;
  AbsorbRelation(h, "rel", rel);
  return h.Digest();
}

Schema ThreeInts() { return Schema::AllInts({"A", "B", "C"}); }

// Rows (i, i % 7, -i) with count 1 + i % 3, for i in [0, n).
std::vector<std::pair<Tuple, int64_t>> Rows(int n) {
  std::vector<std::pair<Tuple, int64_t>> rows;
  for (int i = 0; i < n; ++i) {
    rows.emplace_back(IntTuple({i, i % 7, -i}), 1 + i % 3);
  }
  return rows;
}

Relation Build(const std::vector<std::pair<Tuple, int64_t>>& rows) {
  Relation rel(ThreeInts());
  for (const auto& [t, c] : rows) rel.Add(t, c);
  return rel;
}

TEST(FingerprintTest, RelationDigestIgnoresInsertionOrder) {
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(40);
  const Fp128 forward = DigestOf(Build(rows));
  std::vector<std::pair<Tuple, int64_t>> reversed(rows.rbegin(),
                                                  rows.rend());
  EXPECT_EQ(DigestOf(Build(reversed)), forward);
  // An interleaved order, and one count delivered in two parts.
  std::vector<std::pair<Tuple, int64_t>> shuffled;
  for (size_t i = 0; i < rows.size(); i += 2) shuffled.push_back(rows[i]);
  for (size_t i = 1; i < rows.size(); i += 2) shuffled.push_back(rows[i]);
  Relation split = Build(shuffled);
  split.Add(rows[5].first, 4);
  split.Add(rows[5].first, -4);
  EXPECT_EQ(DigestOf(split), forward);
}

TEST(FingerprintTest, RelationDigestIgnoresEraseAndReinsert) {
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(25);
  const Fp128 want = DigestOf(Build(rows));
  Relation rel = Build(rows);
  const auto& [t, c] = rows[11];
  rel.Add(t, -c);  // the count reaches zero: the entry is erased
  ASSERT_FALSE(rel.Contains(t));
  EXPECT_NE(DigestOf(rel), want);
  rel.Add(t, c);
  EXPECT_EQ(DigestOf(rel), want);
}

TEST(FingerprintTest, RelationDigestIgnoresBucketLayout) {
  // Growing the count map and shrinking it back leaves it with far more
  // buckets than a freshly built one, as a reserve would: same entries,
  // another iteration order.
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(30);
  const Fp128 want = DigestOf(Build(rows));
  Relation grown = Build(rows);
  for (int i = 1000; i < 3000; ++i) grown.Add(IntTuple({i, 0, 0}), 1);
  for (int i = 1000; i < 3000; ++i) grown.Add(IntTuple({i, 0, 0}), -1);
  ASSERT_EQ(grown, Build(rows));
  EXPECT_EQ(DigestOf(grown), want);
}

TEST(FingerprintTest, RelationDigestAgreesAcrossMergeForms) {
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(30);
  Relation base = Build(std::vector<std::pair<Tuple, int64_t>>(
      rows.begin(), rows.begin() + 20));
  // The delta overlaps the base on rows 15-19, cancels row 17 outright,
  // and adds rows 20-29.
  Relation delta(ThreeInts());
  for (size_t i = 15; i < rows.size(); ++i) {
    delta.Add(rows[i].first, i == 17 ? -rows[i].second : rows[i].second);
  }
  Relation by_add = base;
  for (const auto& [t, c] : delta.entries()) by_add.Add(t, c);
  Relation by_copy = base;
  by_copy.Merge(delta);
  Relation by_move = base;
  by_move.Merge(Relation(delta));
  ASSERT_EQ(by_add, by_move);
  EXPECT_EQ(DigestOf(by_move), DigestOf(by_add));
  EXPECT_EQ(DigestOf(by_copy), DigestOf(by_add));
}

TEST(FingerprintTest, RelationDigestSeesEveryCountAndCell) {
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(20);
  const Fp128 base = DigestOf(Build(rows));

  Relation count = Build(rows);
  count.Add(rows[3].first, 1);
  EXPECT_NE(DigestOf(count), base) << "one count changed";

  std::vector<std::pair<Tuple, int64_t>> flipped = rows;
  flipped[8].second = -flipped[8].second;
  EXPECT_NE(DigestOf(Build(flipped)), base) << "one count's sign flipped";

  std::vector<std::pair<Tuple, int64_t>> cell = rows;
  cell[13].first = IntTuple({13, 6, -14});
  EXPECT_NE(DigestOf(Build(cell)), base) << "one cell changed";

  EXPECT_NE(DigestOf(Relation(ThreeInts())), base) << "empty";
}

// --- The additive multiset digest ----------------------------------------

Fp128 LaneSum(const Fp128& a, const Fp128& b) {
  return Fp128{a.lo + b.lo, a.hi + b.hi};
}

TEST(FingerprintTest, RelationDigestIsAdditive) {
  std::vector<std::pair<Tuple, int64_t>> rows = Rows(30);
  Relation a = Build(std::vector<std::pair<Tuple, int64_t>>(
      rows.begin(), rows.begin() + 20));
  // b overlaps a on rows 10-19, cancelling the even ones, and brings
  // rows 20-29 with negative counts.
  Relation b(ThreeInts());
  for (size_t i = 10; i < 20; ++i) {
    b.Add(rows[i].first, i % 2 == 0 ? -rows[i].second : 1);
  }
  for (size_t i = 20; i < rows.size(); ++i) b.Add(rows[i].first, -2);
  Relation sum = a;
  sum.Merge(b);
  EXPECT_EQ(RelationDigest(sum),
            LaneSum(RelationDigest(a), RelationDigest(b)));

  // A union that cancels to nothing digests as the empty relation, whose
  // lanes are zero.
  const Fp128 empty = RelationDigest(Relation(ThreeInts()));
  EXPECT_EQ(empty, Fp128{});
  Relation cancelled = a;
  cancelled.Merge(a.Negated());
  ASSERT_TRUE(cancelled.Empty());
  EXPECT_EQ(RelationDigest(cancelled), empty);
  EXPECT_EQ(LaneSum(RelationDigest(a), RelationDigest(a.Negated())), empty);
}

TEST(FingerprintTest, GoldenDigests) {
  // Pins the definition: the per-lane salts and finalizer, the unsigned
  // count products, and what AbsorbRelation feeds the hasher. Computed
  // once; a change here changes every relation's fingerprint.
  Relation rel =
      Relation::OfInts(Schema::AllInts({"A", "B"}), {{1, 2}, {3, 4}});
  rel.Add(IntTuple({5, 6}), -3);
  rel.Add(IntTuple({1, 2}), 1);
  EXPECT_EQ(RelationDigest(rel),
            (Fp128{0x6b2f70cb2f644043ull, 0x36f63c08898bb932ull}));
  EXPECT_EQ(DigestOf(rel),
            (Fp128{0xe9bcde0ddd2c08b7ull, 0x4ebed6af115eb248ull}));
}

// --- The stream decodes unambiguously ------------------------------------

struct TwoLists {
  std::vector<int64_t> a;
  std::vector<int64_t> b;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("a", self.a);
    v.Protocol("b", self.b);
  }
};

template <class T>
Fp128 DigestOfList(const T& x) {
  StateHasher h;
  StateHashVisitor visitor(h, /*exact=*/false);
  VisitList(x, visitor);
  return h.Digest();
}

struct Leaf {
  int64_t value = 0;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("value", self.value);
  }
};

struct Holders {
  std::vector<std::unique_ptr<Leaf>> items;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("items", self.items);
  }
};

TEST(FingerprintTest, MemberBoundariesAreInTheDigest) {
  // Moving an element from one member to the next keeps the flattened
  // values; the lengths written ahead of each container tell them apart.
  EXPECT_NE(DigestOfList(TwoLists{{1, 2}, {3}}),
            DigestOfList(TwoLists{{1}, {2, 3}}));
  EXPECT_EQ(DigestOfList(TwoLists{{1, 2}, {3}}),
            DigestOfList(TwoLists{{1, 2}, {3}}));
}

TEST(FingerprintTest, NullPointersAreInTheDigest) {
  // A null unique_ptr writes its presence flag: without it, {null, 5}
  // and {5, null} would absorb the same stream.
  Holders a;
  a.items.push_back(nullptr);
  a.items.push_back(std::make_unique<Leaf>(Leaf{5}));
  Holders b;
  b.items.push_back(std::make_unique<Leaf>(Leaf{5}));
  b.items.push_back(nullptr);
  EXPECT_NE(DigestOfList(a), DigestOfList(b));
}

// --- Every hit re-explored ------------------------------------------------

TEST(FingerprintTest, EveryLossyNaiveHitMatchesItsReexploration) {
  // sweepbench's explore_naive exploration at one thread, with every
  // visited-table hit explored again and its summary SWEEP_CHECKed
  // against the cached one: a digest collision between two inequivalent
  // states aborts here. The schedule tallies and the distinct states
  // inserted equal StateGoldenTest.LossyNaiveDedupCounts. No subtree is
  // skipped, so every schedule is one execution and every revisit of a
  // branch node a hit.
  ExplorerConfig config{LossyPaperExampleScenario(Algorithm::kSweep),
                        PromisedConsistency(Algorithm::kSweep),
                        /*sleep_sets=*/false,
                        /*max_schedules=*/10'000'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  config.threads = 1;
  config.dedup_states = true;
  config.verify_on_hit = true;
  const ExploreResult r = ExploreExhaustive(config);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 435779);
  EXPECT_EQ(r.violations, 0);
  EXPECT_EQ(r.sleep_pruned, 0);
  EXPECT_EQ(r.refined_grants, 0);
  EXPECT_EQ(r.dedup_inserts, 21728);
  EXPECT_EQ(r.executions, 435779);
  EXPECT_EQ(r.dedup_hits, 340094);
}

}  // namespace
}  // namespace sweepmv
