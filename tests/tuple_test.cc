#include "relational/tuple.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace sweepmv {
namespace {

TEST(TupleTest, ConstructionAndAccess) {
  Tuple t{Value(int64_t{1}), Value("x")};
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.at(0).AsInt(), 1);
  EXPECT_EQ(t.at(1).AsString(), "x");
}

TEST(TupleTest, IntTupleHelper) {
  Tuple t = IntTuple({7, 8, 9});
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.at(2).AsInt(), 9);
}

TEST(TupleTest, Concat) {
  Tuple a = IntTuple({1, 2});
  Tuple b = IntTuple({3});
  Tuple c = a.Concat(b);
  EXPECT_EQ(c, IntTuple({1, 2, 3}));
  // Originals untouched.
  EXPECT_EQ(a.arity(), 2u);
  EXPECT_EQ(b.arity(), 1u);
}

TEST(TupleTest, ConcatWithEmpty) {
  Tuple a = IntTuple({1, 2});
  Tuple empty;
  EXPECT_EQ(a.Concat(empty), a);
  EXPECT_EQ(empty.Concat(a), a);
}

TEST(TupleTest, ProjectReordersAndDuplicates) {
  Tuple t = IntTuple({10, 20, 30});
  EXPECT_EQ(t.Project({2, 0}), IntTuple({30, 10}));
  EXPECT_EQ(t.Project({1, 1}), IntTuple({20, 20}));
  EXPECT_EQ(t.Project({}), Tuple());
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(IntTuple({1, 2}), IntTuple({1, 2}));
  EXPECT_NE(IntTuple({1, 2}), IntTuple({1, 3}));
  EXPECT_NE(IntTuple({1, 2}), IntTuple({1, 2, 3}));
  EXPECT_LT(IntTuple({1, 2}), IntTuple({1, 3}));
  EXPECT_LT(IntTuple({1}), IntTuple({1, 0}));  // prefix sorts first
}

TEST(TupleTest, HashConsistency) {
  EXPECT_EQ(IntTuple({1, 2, 3}).Hash(), IntTuple({1, 2, 3}).Hash());
  std::unordered_set<Tuple, TupleHash> set;
  set.insert(IntTuple({1, 2}));
  set.insert(IntTuple({1, 2}));
  set.insert(IntTuple({2, 1}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(TupleTest, HashOrderSensitive) {
  EXPECT_NE(IntTuple({1, 2}).Hash(), IntTuple({2, 1}).Hash());
}

// Golden hashes of 12-cell all-int tuples, the arity of the contended
// ingest workload's view (see ValueTest.GoldenIntHashes for why they are
// pinned).
TEST(TupleTest, GoldenTwelveIntHash) {
  EXPECT_EQ(IntTuple({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}).Hash(),
            0x5a5cea8e5f56f246ULL);
  EXPECT_EQ(IntTuple({-7, 0, 42, 1000000007, -1, 3, 99, 12345678901LL, 5, 6,
                      7, 8})
                .Hash(),
            0xfc6a0076f8e67be4ULL);
}

Value RandomCell(Rng& rng) {
  switch (rng.Uniform(0, 2)) {
    case 0:
      return Value(rng.Uniform(-1000, 1000));
    case 1:
      return Value(static_cast<double>(rng.Uniform(-8, 8)) / 4.0);
    default:
      return Value("s" + std::to_string(rng.Uniform(0, 20)));
  }
}

std::vector<Value> RandomCells(Rng& rng) {
  std::vector<Value> cells(static_cast<size_t>(rng.Uniform(0, 6)));
  for (Value& cell : cells) cell = RandomCell(rng);
  return cells;
}

// Concat continues the left operand's hash fold instead of rehashing, so
// its result must be indistinguishable from building the tuple outright.
TEST(TupleTest, ConcatMatchesOutrightConstruction) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> left = RandomCells(rng);
    std::vector<Value> right = RandomCells(rng);
    std::vector<Value> both = left;
    both.insert(both.end(), right.begin(), right.end());
    Tuple joined = Tuple(left).Concat(Tuple(right));
    Tuple outright(both);
    EXPECT_EQ(joined, outright) << "trial " << trial;
    EXPECT_EQ(joined.Hash(), outright.Hash()) << "trial " << trial;
  }
}

TEST(TupleTest, DisplayString) {
  EXPECT_EQ(IntTuple({1, 3}).ToDisplayString(), "(1,3)");
  EXPECT_EQ(Tuple().ToDisplayString(), "()");
}

}  // namespace
}  // namespace sweepmv
