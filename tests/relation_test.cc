#include "relational/relation.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"

namespace sweepmv {
namespace {

Schema TwoInts() { return Schema::AllInts({"A", "B"}); }

TEST(RelationTest, AddAndCount) {
  Relation r(TwoInts());
  r.Add(IntTuple({1, 2}), 1);
  r.Add(IntTuple({1, 2}), 2);
  EXPECT_EQ(r.CountOf(IntTuple({1, 2})), 3);
  EXPECT_EQ(r.CountOf(IntTuple({9, 9})), 0);
  EXPECT_EQ(r.DistinctSize(), 1u);
  EXPECT_EQ(r.TotalCount(), 3);
}

TEST(RelationTest, ZeroCountsVanish) {
  Relation r(TwoInts());
  r.Add(IntTuple({1, 2}), 1);
  r.Add(IntTuple({1, 2}), -1);
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.DistinctSize(), 0u);

  r.Add(IntTuple({3, 4}), 0);  // explicit zero is a no-op
  EXPECT_TRUE(r.Empty());
}

TEST(RelationTest, NegativeCountsForDeltas) {
  Relation delta(TwoInts());
  delta.Add(IntTuple({1, 2}), -1);
  EXPECT_TRUE(delta.HasNegative());
  EXPECT_EQ(delta.TotalCount(), -1);
  EXPECT_EQ(delta.AbsoluteCount(), 1);
  EXPECT_TRUE(delta.Contains(IntTuple({1, 2})));
}

TEST(RelationTest, MergeAddsCounts) {
  Relation a(TwoInts());
  a.Add(IntTuple({1, 1}), 2);
  Relation b(TwoInts());
  b.Add(IntTuple({1, 1}), -1);
  b.Add(IntTuple({2, 2}), 1);
  a.Merge(b);
  EXPECT_EQ(a.CountOf(IntTuple({1, 1})), 1);
  EXPECT_EQ(a.CountOf(IntTuple({2, 2})), 1);
}

TEST(RelationTest, MergeNegatedCancelsExactly) {
  Relation a = Relation::OfInts(TwoInts(), {{1, 1}, {2, 2}});
  Relation b = a;
  a.MergeNegated(b);
  EXPECT_TRUE(a.Empty());
}

TEST(RelationTest, Negated) {
  Relation a(TwoInts());
  a.Add(IntTuple({1, 1}), 3);
  Relation n = a.Negated();
  EXPECT_EQ(n.CountOf(IntTuple({1, 1})), -3);
  EXPECT_EQ(a.CountOf(IntTuple({1, 1})), 3);  // original untouched
}

TEST(RelationTest, OfIntsBuilder) {
  Relation r = Relation::OfInts(TwoInts(), {{1, 3}, {2, 3}, {1, 3}});
  EXPECT_EQ(r.CountOf(IntTuple({1, 3})), 2);
  EXPECT_EQ(r.CountOf(IntTuple({2, 3})), 1);
}

TEST(RelationTest, EraseMatching) {
  Relation r = Relation::OfInts(Schema::AllInts({"A", "B", "C"}),
                                {{1, 2, 3}, {1, 2, 4}, {5, 2, 3}});
  // Erase rows whose (A) projection equals (1).
  size_t erased = r.EraseMatching({0}, IntTuple({1}));
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(r.DistinctSize(), 1u);
  EXPECT_TRUE(r.Contains(IntTuple({5, 2, 3})));
}

TEST(RelationTest, EraseMatchingMultiColumnKey) {
  Relation r = Relation::OfInts(Schema::AllInts({"A", "B", "C"}),
                                {{1, 2, 3}, {1, 3, 3}});
  EXPECT_EQ(r.EraseMatching({0, 2}, IntTuple({1, 3})), 2u);
  EXPECT_TRUE(r.Empty());
}

TEST(RelationTest, ClampToSet) {
  Relation r(TwoInts());
  r.Add(IntTuple({1, 1}), 5);
  r.Add(IntTuple({2, 2}), 1);
  r.ClampToSet();
  EXPECT_EQ(r.CountOf(IntTuple({1, 1})), 1);
  EXPECT_EQ(r.CountOf(IntTuple({2, 2})), 1);
}

TEST(RelationTest, EqualityIgnoresSchemaNames) {
  Relation a = Relation::OfInts(Schema::AllInts({"A", "B"}), {{1, 2}});
  Relation b = Relation::OfInts(Schema::AllInts({"X", "Y"}), {{1, 2}});
  EXPECT_EQ(a, b);
  b.Add(IntTuple({1, 2}), 1);
  EXPECT_NE(a, b);
}

TEST(RelationTest, SortedEntriesDeterministic) {
  Relation r = Relation::OfInts(TwoInts(), {{3, 1}, {1, 1}, {2, 1}});
  auto entries = r.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, IntTuple({1, 1}));
  EXPECT_EQ(entries[2].first, IntTuple({3, 1}));
}

TEST(RelationTest, DisplayStringMatchesPaperStyle) {
  Relation r(TwoInts());
  r.Add(IntTuple({7, 8}), 2);
  EXPECT_EQ(r.ToDisplayString(), "{(7,8)[2]}");
}

// A signed bag over a small key domain, so merges hit existing tuples and
// counts cancel to zero often.
Relation RandomSignedBag(Rng& rng) {
  Relation r(TwoInts());
  const int64_t rows = rng.Uniform(0, 12);
  for (int64_t i = 0; i < rows; ++i) {
    r.Add(IntTuple({rng.Uniform(0, 3), rng.Uniform(0, 3)}),
          rng.Uniform(-2, 2));
  }
  return r;
}

TEST(RelationTest, MoveMergeMatchesCopyMerge) {
  Rng rng(20260101);
  int cancelled = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Relation target = RandomSignedBag(rng);
    Relation source = RandomSignedBag(rng);
    Relation by_copy = target;
    by_copy.Merge(source);
    Relation by_move = target;
    by_move.Merge(Relation(source));
    EXPECT_EQ(by_move, by_copy);
    for (const auto& [t, c] : source.entries()) {
      if (target.CountOf(t) == -c) ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0) << "no trial exercised a count cancelling to zero";
}

TEST(RelationTest, MoveMergeLeavesSourceEmpty) {
  Relation target = Relation::OfInts(TwoInts(), {{1, 1}, {2, 2}});
  Relation source(TwoInts());
  source.Add(IntTuple({1, 1}), -1);
  source.Add(IntTuple({3, 3}), 4);
  target.Merge(std::move(source));
  EXPECT_TRUE(source.Empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target.CountOf(IntTuple({1, 1})), 0);
  EXPECT_EQ(target.CountOf(IntTuple({2, 2})), 1);
  EXPECT_EQ(target.CountOf(IntTuple({3, 3})), 4);
  EXPECT_EQ(target.DistinctSize(), 2u);
}

TEST(RelationTest, MoveAddMatchesCopyAdd) {
  Rng rng(7);
  Relation by_copy(TwoInts());
  Relation by_move(TwoInts());
  for (int i = 0; i < 2000; ++i) {
    const Tuple t = IntTuple({rng.Uniform(0, 3), rng.Uniform(0, 3)});
    const int64_t count = rng.Uniform(-2, 2);
    by_copy.Add(t, count);
    Tuple moved = t;
    by_move.Add(std::move(moved), count);
    ASSERT_EQ(by_move, by_copy) << "after op " << i;
  }
}

TEST(RelationTest, PaperCompensationAlgebra) {
  // Section 5.2: {-(2,3)} ⋈ {-(3,7,8)} must evaluate to +(2,3,7,8) — the
  // product of two negative counts is positive. Verified at the Relation
  // level through count multiplication semantics in Join (covered in
  // operators_test); here we verify signed merges behave.
  Relation dv(Schema::AllInts({"A", "B", "C"}));
  dv.Add(IntTuple({1, 3, 7}), -1);
  Relation error(Schema::AllInts({"A", "B", "C"}));
  error.Add(IntTuple({2, 3, 7}), 1);
  dv.MergeNegated(error);  // ΔV = ΔV − error
  EXPECT_EQ(dv.CountOf(IntTuple({2, 3, 7})), -1);
  EXPECT_EQ(dv.CountOf(IntTuple({1, 3, 7})), -1);
}

}  // namespace
}  // namespace sweepmv
