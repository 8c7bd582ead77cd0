#include "relational/view_def.h"

#include <gtest/gtest.h>

#include "verify/scenarios.h"

namespace sweepmv {
namespace {

TEST(ViewDefTest, BasicShape) {
  ViewDef v = PaperView();
  EXPECT_EQ(v.num_relations(), 3);
  EXPECT_EQ(v.joined_schema().arity(), 6u);
  EXPECT_EQ(v.attr_offset(0), 0);
  EXPECT_EQ(v.attr_offset(1), 2);
  EXPECT_EQ(v.attr_offset(2), 4);
  EXPECT_EQ(v.rel_name(1), "R2");
  EXPECT_EQ(v.view_schema().arity(), 2u);
  EXPECT_EQ(v.view_schema().attr(0).name, "D");
  EXPECT_EQ(v.view_schema().attr(1).name, "F");
}

TEST(ViewDefTest, DefaultProjectionIsIdentity) {
  ViewDef v = ViewDef::Builder()
                  .AddRelation("R1", Schema::AllInts({"A", "B"}))
                  .AddRelation("R2", Schema::AllInts({"C", "D"}))
                  .JoinOn(0, 1, 0)
                  .Build();
  EXPECT_EQ(v.projection().size(), 4u);
  EXPECT_EQ(v.projection()[3], 3);
  EXPECT_EQ(v.view_schema().arity(), 4u);
}

TEST(ViewDefTest, ExtendKeys) {
  ViewDef v = PaperView();
  // Extending a partial spanning [1,2] with R0 on the left: R0.B (pos 1)
  // joins R1...R2-partial's C, which is at local position 0.
  auto left = v.ExtendLeftKeys(0);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], std::make_pair(1, 0));

  // Extending [0,1] with R2 on the right: the partial's D (offset of R1=2
  // plus local 1 = 3) joins R2.E (local 0).
  auto right = v.ExtendRightKeys(0, 2);
  ASSERT_EQ(right.size(), 1u);
  EXPECT_EQ(right[0], std::make_pair(3, 0));

  // Same but for a partial spanning [1,1]: D is at local position 1.
  auto right_narrow = v.ExtendRightKeys(1, 2);
  ASSERT_EQ(right_narrow.size(), 1u);
  EXPECT_EQ(right_narrow[0], std::make_pair(1, 0));
}

TEST(ViewDefTest, RelPositions) {
  ViewDef v = PaperView();
  EXPECT_EQ(v.RelPositionsInJoined(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(v.RelPositionsInJoined(2), (std::vector<int>{4, 5}));
  EXPECT_EQ(v.RelPositionsInSpan(1, 2, 2), (std::vector<int>{2, 3}));
}

TEST(ViewDefTest, EvaluateFullPaperInitialState) {
  // Figure 5's initial configuration: V = {(7,8)[2]}.
  ViewDef v = PaperView();
  Relation r1 = Relation::OfInts(v.rel_schema(0), {{1, 3}, {2, 3}});
  Relation r2 = Relation::OfInts(v.rel_schema(1), {{3, 7}});
  Relation r3 = Relation::OfInts(v.rel_schema(2), {{5, 6}, {7, 8}});
  Relation view = v.EvaluateFull({&r1, &r2, &r3});
  EXPECT_EQ(view.DistinctSize(), 1u);
  EXPECT_EQ(view.CountOf(IntTuple({7, 8})), 2);
}

TEST(ViewDefTest, EvaluateFullPaperStateSequence) {
  // Figure 5's four states, evaluated from scratch.
  ViewDef v = PaperView();
  Relation r1 = Relation::OfInts(v.rel_schema(0), {{1, 3}, {2, 3}});
  Relation r2 = Relation::OfInts(v.rel_schema(1), {{3, 7}});
  Relation r3 = Relation::OfInts(v.rel_schema(2), {{5, 6}, {7, 8}});

  r2.Add(IntTuple({3, 5}), 1);  // ΔR2 = +(3,5)
  Relation after2 = v.EvaluateFull({&r1, &r2, &r3});
  EXPECT_EQ(after2.CountOf(IntTuple({5, 6})), 2);
  EXPECT_EQ(after2.CountOf(IntTuple({7, 8})), 2);

  r3.Add(IntTuple({7, 8}), -1);  // ΔR3 = -(7,8)
  Relation after3 = v.EvaluateFull({&r1, &r2, &r3});
  EXPECT_EQ(after3.CountOf(IntTuple({5, 6})), 2);
  EXPECT_EQ(after3.CountOf(IntTuple({7, 8})), 0);

  r1.Add(IntTuple({2, 3}), -1);  // ΔR1 = -(2,3)
  Relation after1 = v.EvaluateFull({&r1, &r2, &r3});
  EXPECT_EQ(after1.CountOf(IntTuple({5, 6})), 1);
  EXPECT_EQ(after1.DistinctSize(), 1u);
}

TEST(ViewDefTest, SelectionApplied) {
  ViewDef v = ViewDef::Builder()
                  .AddRelation("R1", Schema::AllInts({"A", "B"}))
                  .AddRelation("R2", Schema::AllInts({"C", "D"}))
                  .JoinOn(0, 1, 0)
                  .Select(Predicate::AttrCmpConst(3, CmpOp::kGt,
                                                  Value(int64_t{10})))
                  .Build();
  Relation r1 = Relation::OfInts(v.rel_schema(0), {{1, 3}});
  Relation r2 = Relation::OfInts(v.rel_schema(1), {{3, 5}, {3, 50}});
  Relation view = v.EvaluateFull({&r1, &r2});
  EXPECT_EQ(view.DistinctSize(), 1u);
  EXPECT_TRUE(view.Contains(IntTuple({1, 3, 3, 50})));
}

TEST(ViewDefTest, SingleRelationView) {
  ViewDef v = ViewDef::Builder()
                  .AddRelation("R", Schema::AllInts({"A", "B"}))
                  .Project({1})
                  .Build();
  Relation r = Relation::OfInts(v.rel_schema(0), {{1, 7}, {2, 7}});
  Relation view = v.EvaluateFull({&r});
  EXPECT_EQ(view.CountOf(IntTuple({7})), 2);
}

TEST(ViewDefTest, FinishFullSpanEqualsEvaluate) {
  ViewDef v = PaperView();
  Relation r1 = Relation::OfInts(v.rel_schema(0), {{1, 3}, {2, 3}});
  Relation r2 = Relation::OfInts(v.rel_schema(1), {{3, 7}, {3, 5}});
  Relation r3 = Relation::OfInts(v.rel_schema(2), {{5, 6}, {7, 8}});

  Relation full = Join(Join(r1, r2, v.ExtendRightKeys(0, 1)), r3,
                       v.ExtendRightKeys(0, 2));
  EXPECT_EQ(v.FinishFullSpan(full), v.EvaluateFull({&r1, &r2, &r3}));
}

// A signed full-span delta over the two-relation chain R1[A,B] ⋈ R2[C,D].
Relation SignedFullSpan(const ViewDef& v) {
  Relation full(v.joined_schema());
  full.Add(IntTuple({1, 3, 3, 5}), 2);
  full.Add(IntTuple({2, 3, 3, 50}), -1);
  full.Add(IntTuple({4, 3, 3, 50}), 1);
  return full;
}

ViewDef::Builder TwoRelationChain() {
  ViewDef::Builder b;
  b.AddRelation("R1", Schema::AllInts({"A", "B"}))
      .AddRelation("R2", Schema::AllInts({"C", "D"}))
      .JoinOn(0, 1, 0);
  return b;
}

TEST(ViewDefTest, FinishFullSpanFastPathEqualsSelectProject) {
  // Default projection and an explicitly spelled identity both take the
  // pass-through path; it must equal the general Select + Project.
  for (ViewDef v : {TwoRelationChain().Build(),
                    TwoRelationChain().Project({0, 1, 2, 3}).Build()}) {
    Relation full = SignedFullSpan(v);
    Relation expected = Project(Select(full, v.selection()), v.projection());
    Relation finished = v.FinishFullSpan(full);
    EXPECT_EQ(finished, expected);
    EXPECT_EQ(finished.schema(), v.view_schema());
  }
}

TEST(ViewDefTest, FinishFullSpanStillProjectsAndFilters) {
  ViewDef narrow = TwoRelationChain().Project({0, 3}).Build();
  Relation narrowed = narrow.FinishFullSpan(SignedFullSpan(narrow));
  EXPECT_EQ(narrowed.schema(), narrow.view_schema());
  EXPECT_EQ(narrowed.CountOf(IntTuple({1, 5})), 2);
  EXPECT_EQ(narrowed.CountOf(IntTuple({2, 50})), -1);
  EXPECT_EQ(narrowed.DistinctSize(), 3u);

  // A non-identity permutation of every column is still a projection.
  ViewDef permuted = TwoRelationChain().Project({3, 2, 1, 0}).Build();
  EXPECT_TRUE(permuted.FinishFullSpan(SignedFullSpan(permuted))
                  .Contains(IntTuple({5, 3, 3, 1})));

  ViewDef selective = TwoRelationChain()
                          .Select(Predicate::AttrCmpConst(
                              3, CmpOp::kGt, Value(int64_t{10})))
                          .Build();
  Relation filtered = selective.FinishFullSpan(SignedFullSpan(selective));
  EXPECT_EQ(filtered.DistinctSize(), 2u);
  EXPECT_EQ(filtered.CountOf(IntTuple({1, 3, 3, 5})), 0);
  EXPECT_EQ(filtered.CountOf(IntTuple({2, 3, 3, 50})), -1);
  EXPECT_EQ(filtered.CountOf(IntTuple({4, 3, 3, 50})), 1);
}

TEST(ViewDefTest, CrossProductPairAllowed) {
  // A consecutive pair with no join condition is a cross product.
  ViewDef v = ViewDef::Builder()
                  .AddRelation("R1", Schema::AllInts({"A"}))
                  .AddRelation("R2", Schema::AllInts({"B"}))
                  .Build();
  Relation r1 = Relation::OfInts(v.rel_schema(0), {{1}, {2}});
  Relation r2 = Relation::OfInts(v.rel_schema(1), {{9}});
  EXPECT_EQ(v.EvaluateFull({&r1, &r2}).DistinctSize(), 2u);
}

}  // namespace
}  // namespace sweepmv
