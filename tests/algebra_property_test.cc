// Randomized properties of the counting algebra and the incremental-
// maintenance identities built on it. These are the algebraic facts every
// algorithm in core/ silently relies on; each is checked against
// from-scratch recomputation over randomized relations and deltas.

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "relational/operators.h"
#include "relational/partial_delta.h"
#include "workload/schema_gen.h"

namespace sweepmv {
namespace {

Relation RandomRelation(Rng& rng, const Schema& schema, int rows,
                        int64_t domain, bool allow_negative) {
  Relation r(schema);
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> values;
    for (size_t a = 0; a < schema.arity(); ++a) {
      values.emplace_back(rng.Uniform(0, domain - 1));
    }
    int64_t count = rng.Uniform(1, 3);
    if (allow_negative && rng.Bernoulli(0.4)) count = -count;
    r.Add(Tuple(std::move(values)), count);
  }
  return r;
}

class AlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgebraProperty, JoinDistributesOverUnion) {
  Rng rng(GetParam());
  Schema ab = Schema::AllInts({"A", "B"});
  Schema cd = Schema::AllInts({"C", "D"});
  Relation r = RandomRelation(rng, ab, 20, 6, false);
  Relation delta = RandomRelation(rng, ab, 6, 6, true);
  Relation s = RandomRelation(rng, cd, 20, 6, false);

  // (R + Δ) ⋈ S == R ⋈ S + Δ ⋈ S — the identity incremental view
  // maintenance is built on (Section 3).
  Relation lhs = Join(Union(r, delta), s, {{1, 0}});
  Relation rhs = Union(Join(r, s, {{1, 0}}), Join(delta, s, {{1, 0}}));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(AlgebraProperty, JoinAssociativityAlongTheChain) {
  Rng rng(GetParam() + 100);
  Schema ab = Schema::AllInts({"A", "B"});
  Schema cd = Schema::AllInts({"C", "D"});
  Schema ef = Schema::AllInts({"E", "F"});
  Relation r1 = RandomRelation(rng, ab, 15, 5, false);
  Relation r2 = RandomRelation(rng, cd, 15, 5, true);
  Relation r3 = RandomRelation(rng, ef, 15, 5, false);

  // (R1 ⋈ R2) ⋈ R3 == R1 ⋈ (R2 ⋈ R3): why left-then-right sweeps and
  // right-then-left extensions agree.
  Relation left_first =
      Join(Join(r1, r2, {{1, 0}}), r3, {{3, 0}});
  Relation right_first =
      Join(r1, Join(r2, r3, {{1, 0}}), {{1, 0}});
  EXPECT_EQ(left_first, right_first);
}

TEST_P(AlgebraProperty, ProjectionCommutesWithUnion) {
  Rng rng(GetParam() + 200);
  Schema ab = Schema::AllInts({"A", "B", "C"});
  Relation r = RandomRelation(rng, ab, 20, 4, true);
  Relation s = RandomRelation(rng, ab, 20, 4, true);
  EXPECT_EQ(Project(Union(r, s), {1, 2}),
            Union(Project(r, {1, 2}), Project(s, {1, 2})));
}

TEST_P(AlgebraProperty, SelectionCommutesWithUnion) {
  Rng rng(GetParam() + 300);
  Schema ab = Schema::AllInts({"A", "B"});
  Relation r = RandomRelation(rng, ab, 20, 4, true);
  Relation s = RandomRelation(rng, ab, 20, 4, true);
  Predicate pred = Predicate::AttrCmpConst(0, CmpOp::kLe,
                                           Value(int64_t{2}));
  EXPECT_EQ(Select(Union(r, s), pred),
            Union(Select(r, pred), Select(s, pred)));
}

TEST_P(AlgebraProperty, MergeNegatedIsInverse) {
  Rng rng(GetParam() + 400);
  Schema ab = Schema::AllInts({"A", "B"});
  Relation r = RandomRelation(rng, ab, 25, 5, true);
  Relation copy = r;
  Relation delta = RandomRelation(rng, ab, 10, 5, true);
  copy.Merge(delta);
  copy.MergeNegated(delta);
  EXPECT_EQ(copy, r);
}

TEST_P(AlgebraProperty, IncrementalDeltaEqualsRecomputation) {
  // The end-to-end identity SWEEP computes: V(R + Δ) - V(R) must equal
  // the swept delta Π σ (R1 ⋈ … ⋈ ΔRi ⋈ … ⋈ Rn), for random databases,
  // random update positions and random (mixed-sign) deltas.
  uint64_t seed = GetParam();
  Rng rng(seed + 500);

  ChainSpec spec;
  spec.num_relations = 3 + static_cast<int>(seed % 3);
  spec.initial_tuples = 12;
  spec.join_domain = 4;
  spec.seed = seed;
  spec.narrow_projection = (seed % 2) == 0;
  ViewDef view = MakeChainView(spec);
  std::vector<Relation> bases = MakeInitialBases(view, spec);

  int i = static_cast<int>(rng.Uniform(0, view.num_relations() - 1));
  // A mixed delta: new tuples plus deletions of existing ones.
  Relation delta(view.rel_schema(i));
  delta.Add(IntTuple({1000, rng.Uniform(0, 3), rng.Uniform(0, 3)}), 1);
  delta.Add(IntTuple({1001, rng.Uniform(0, 3), rng.Uniform(0, 3)}), 2);
  auto existing = bases[static_cast<size_t>(i)].SortedEntries();
  delta.Add(existing[static_cast<size_t>(rng.Uniform(
                0, static_cast<int64_t>(existing.size()) - 1))]
                .first,
            -1);

  // Recomputation route.
  std::vector<const Relation*> before;
  for (const Relation& b : bases) before.push_back(&b);
  Relation v_before = view.EvaluateFull(before);
  std::vector<Relation> after = bases;
  after[static_cast<size_t>(i)].Merge(delta);
  std::vector<const Relation*> after_ptrs;
  for (const Relation& b : after) after_ptrs.push_back(&b);
  Relation v_after = view.EvaluateFull(after_ptrs);
  Relation recomputed_delta = Subtract(v_after, v_before);

  // Sweep route (left then right, against the OLD base states).
  PartialDelta pd = PartialDelta::ForRelation(view, i, delta);
  for (int j = i - 1; j >= 0; --j) {
    pd = ExtendLeft(view, bases[static_cast<size_t>(j)], pd);
  }
  for (int j = i + 1; j < view.num_relations(); ++j) {
    pd = ExtendRight(view, pd, bases[static_cast<size_t>(j)]);
  }
  Relation swept_delta = view.FinishFullSpan(pd.rel);

  EXPECT_EQ(swept_delta, recomputed_delta)
      << "seed=" << seed << " i=" << i;
}

TEST_P(AlgebraProperty, ParallelMergeEqualsSequentialSweep) {
  uint64_t seed = GetParam();
  Rng rng(seed + 900);

  ChainSpec spec;
  spec.num_relations = 4;
  spec.initial_tuples = 10;
  spec.join_domain = 4;
  spec.seed = seed;
  ViewDef view = MakeChainView(spec);
  std::vector<Relation> bases = MakeInitialBases(view, spec);

  int i = 1 + static_cast<int>(rng.Uniform(0, 1));  // interior relation
  Relation delta(view.rel_schema(i));
  delta.Add(IntTuple({2000, rng.Uniform(0, 3), rng.Uniform(0, 3)}), 2);
  delta.Add(IntTuple({2001, rng.Uniform(0, 3), rng.Uniform(0, 3)}), -1);

  PartialDelta seq = PartialDelta::ForRelation(view, i, delta);
  for (int j = i - 1; j >= 0; --j) {
    seq = ExtendLeft(view, bases[static_cast<size_t>(j)], seq);
  }
  for (int j = i + 1; j < view.num_relations(); ++j) {
    seq = ExtendRight(view, seq, bases[static_cast<size_t>(j)]);
  }

  PartialDelta left = PartialDelta::ForRelation(view, i, delta);
  for (int j = i - 1; j >= 0; --j) {
    left = ExtendLeft(view, bases[static_cast<size_t>(j)], left);
  }
  Relation unit(view.rel_schema(i));
  for (const auto& [t, c] : delta.entries()) {
    (void)c;
    unit.Add(t, 1);
  }
  PartialDelta right = PartialDelta::ForRelation(view, i, unit);
  for (int j = i + 1; j < view.num_relations(); ++j) {
    right = ExtendRight(view, right, bases[static_cast<size_t>(j)]);
  }

  EXPECT_EQ(MergeParallelSweeps(view, i, left, right).rel, seq.rel)
      << "seed=" << seed << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 9u, 10u),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "s" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace sweepmv
