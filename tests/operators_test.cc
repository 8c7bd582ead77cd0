#include "relational/operators.h"

#include <gtest/gtest.h>

namespace sweepmv {
namespace {

Schema AB() { return Schema::AllInts({"A", "B"}); }
Schema CD() { return Schema::AllInts({"C", "D"}); }

TEST(OperatorsTest, SelectFilters) {
  Relation r = Relation::OfInts(AB(), {{1, 10}, {2, 20}, {3, 30}});
  Relation out =
      Select(r, Predicate::AttrCmpConst(1, CmpOp::kGe, Value(int64_t{20})));
  EXPECT_EQ(out.DistinctSize(), 2u);
  EXPECT_TRUE(out.Contains(IntTuple({2, 20})));
  EXPECT_TRUE(out.Contains(IntTuple({3, 30})));
}

TEST(OperatorsTest, SelectPreservesCounts) {
  Relation r(AB());
  r.Add(IntTuple({1, 1}), -2);
  Relation out = Select(r, Predicate::True());
  EXPECT_EQ(out.CountOf(IntTuple({1, 1})), -2);
}

TEST(OperatorsTest, ProjectSumsCounts) {
  Relation r = Relation::OfInts(AB(), {{1, 7}, {2, 7}, {3, 8}});
  Relation out = Project(r, {1});
  EXPECT_EQ(out.CountOf(IntTuple({7})), 2);
  EXPECT_EQ(out.CountOf(IntTuple({8})), 1);
  EXPECT_EQ(out.schema().attr(0).name, "B");
}

TEST(OperatorsTest, ProjectCancellation) {
  // A +1 and a -1 that collapse under projection must vanish.
  Relation r(AB());
  r.Add(IntTuple({1, 7}), 1);
  r.Add(IntTuple({2, 7}), -1);
  Relation out = Project(r, {1});
  EXPECT_TRUE(out.Empty());
}

TEST(OperatorsTest, EquiJoinBasic) {
  Relation left = Relation::OfInts(AB(), {{1, 3}, {2, 3}, {5, 9}});
  Relation right = Relation::OfInts(CD(), {{3, 7}, {3, 5}});
  Relation out = Join(left, right, {{1, 0}});  // B = C
  EXPECT_EQ(out.DistinctSize(), 4u);
  EXPECT_TRUE(out.Contains(IntTuple({1, 3, 3, 7})));
  EXPECT_TRUE(out.Contains(IntTuple({1, 3, 3, 5})));
  EXPECT_TRUE(out.Contains(IntTuple({2, 3, 3, 7})));
  EXPECT_TRUE(out.Contains(IntTuple({2, 3, 3, 5})));
  EXPECT_EQ(out.schema().arity(), 4u);
}

TEST(OperatorsTest, JoinMultipliesCounts) {
  Relation left(AB());
  left.Add(IntTuple({1, 3}), 2);
  Relation right(CD());
  right.Add(IntTuple({3, 7}), 3);
  Relation out = Join(left, right, {{1, 0}});
  EXPECT_EQ(out.CountOf(IntTuple({1, 3, 3, 7})), 6);
}

TEST(OperatorsTest, JoinOfNegativesIsPositive) {
  // The algebraic heart of SWEEP's local compensation (Section 5.2):
  // {-(2,3)} ⋈ {-(3,7,8)} ≡ {+(2,3,7,8)}.
  Relation d1(AB());
  d1.Add(IntTuple({2, 3}), -1);
  Relation d2(Schema::AllInts({"C", "D", "E"}));
  d2.Add(IntTuple({3, 7, 8}), -1);
  Relation out = Join(d1, d2, {{1, 0}});
  EXPECT_EQ(out.CountOf(IntTuple({2, 3, 3, 7, 8})), 1);
}

TEST(OperatorsTest, JoinMixedSign) {
  Relation d1(AB());
  d1.Add(IntTuple({2, 3}), -1);
  Relation base = Relation::OfInts(CD(), {{3, 7}});
  Relation out = Join(d1, base, {{1, 0}});
  EXPECT_EQ(out.CountOf(IntTuple({2, 3, 3, 7})), -1);
}

TEST(OperatorsTest, JoinEmptyKeysIsCrossProduct) {
  Relation left = Relation::OfInts(AB(), {{1, 1}, {2, 2}});
  Relation right = Relation::OfInts(CD(), {{3, 3}});
  Relation out = Join(left, right, {});
  EXPECT_EQ(out.DistinctSize(), 2u);
  EXPECT_TRUE(out.Contains(IntTuple({1, 1, 3, 3})));
  EXPECT_TRUE(out.Contains(IntTuple({2, 2, 3, 3})));
}

TEST(OperatorsTest, JoinMultiKey) {
  Relation left = Relation::OfInts(AB(), {{1, 2}, {1, 3}});
  Relation right = Relation::OfInts(CD(), {{1, 2}, {1, 3}});
  // A = C and B = D: only exact matches.
  Relation out = Join(left, right, {{0, 0}, {1, 1}});
  EXPECT_EQ(out.DistinctSize(), 2u);
  EXPECT_TRUE(out.Contains(IntTuple({1, 2, 1, 2})));
  EXPECT_TRUE(out.Contains(IntTuple({1, 3, 1, 3})));
}

TEST(OperatorsTest, JoinWithEmptyInput) {
  Relation left(AB());
  Relation right = Relation::OfInts(CD(), {{3, 7}});
  EXPECT_TRUE(Join(left, right, {{1, 0}}).Empty());
  EXPECT_TRUE(Join(right, left, {{1, 0}}).Empty());
}

TEST(OperatorsTest, JoinKeepsColumnOrderWhicheverSideIsSmaller) {
  // Join hashes the smaller input; the output is left ++ right either way
  // and equals the filtered cross product.
  Relation small(AB());
  small.Add(IntTuple({2, 3}), -1);
  Relation big = Relation::OfInts(CD(), {{3, 7}, {3, 5}, {4, 1}, {3, 7}});
  for (bool small_left : {true, false}) {
    const Relation& left = small_left ? small : big;
    const Relation& right = small_left ? big : small;
    const int left_key = small_left ? 1 : 0;
    const int right_key = small_left ? 0 : 1;
    Relation expected(left.schema().Concat(right.schema()));
    const Relation cross = Join(left, right, {});
    for (const auto& [t, c] : cross.entries()) {
      if (t.at(static_cast<size_t>(left_key)) ==
          t.at(left.schema().arity() + static_cast<size_t>(right_key))) {
        expected.Add(t, c);
      }
    }
    Relation out = Join(left, right, {{left_key, right_key}});
    EXPECT_EQ(out, expected);
    EXPECT_EQ(out.DistinctSize(), 2u);
  }
  EXPECT_EQ(Join(small, big, {{1, 0}}).CountOf(IntTuple({2, 3, 3, 7})), -2);
  EXPECT_EQ(Join(big, small, {{0, 1}}).CountOf(IntTuple({3, 7, 2, 3})), -2);
}

TEST(OperatorsTest, UnionAndSubtract) {
  Relation a = Relation::OfInts(AB(), {{1, 1}});
  Relation b = Relation::OfInts(AB(), {{1, 1}, {2, 2}});
  Relation u = Union(a, b);
  EXPECT_EQ(u.CountOf(IntTuple({1, 1})), 2);
  EXPECT_EQ(u.CountOf(IntTuple({2, 2})), 1);

  Relation d = Subtract(a, b);
  EXPECT_EQ(d.CountOf(IntTuple({1, 1})), 0);
  EXPECT_EQ(d.CountOf(IntTuple({2, 2})), -1);
}

TEST(OperatorsTest, JoinDistributesOverUnion) {
  // (a ∪ b) ⋈ c == (a ⋈ c) ∪ (b ⋈ c) — the incremental-maintenance
  // identity everything else rests on.
  Relation a = Relation::OfInts(AB(), {{1, 3}, {2, 4}});
  Relation b(AB());
  b.Add(IntTuple({2, 4}), -1);
  b.Add(IntTuple({5, 3}), 1);
  Relation c = Relation::OfInts(CD(), {{3, 9}, {4, 9}});

  Relation lhs = Join(Union(a, b), c, {{1, 0}});
  Relation rhs = Union(Join(a, c, {{1, 0}}), Join(b, c, {{1, 0}}));
  EXPECT_EQ(lhs, rhs);
}

}  // namespace
}  // namespace sweepmv
