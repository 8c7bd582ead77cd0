// A DataSource hosting the whole chain: ECA's centralized source
// (Section 3), which evaluates signed-term queries in one event.

#include "source/data_source.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;

class SinkSite : public Site {
 public:
  void OnMessage(int from, Message msg) override {
    (void)from;
    messages.push_back(std::move(msg));
  }
  std::vector<Message> messages;
};

struct Fixture {
  Fixture()
      : view(PaperView()),
        network(&sim, LatencyModel::Fixed(10), 1),
        source(/*site_id=*/1, /*first_relation=*/0, PaperBases(view), &view,
               &network, /*warehouse_site=*/0, &ids,
               SourceStorageOptions{/*use_indexes=*/false}) {
    network.RegisterSite(0, &sink);
    network.RegisterSite(1, &source);
  }

  ViewDef view;
  Simulator sim;
  Network network;
  UpdateIdGenerator ids;
  SinkSite sink;
  DataSource source;
};

TEST(EcaSourceTest, AppliesTransactionsPerRelation) {
  Fixture f;
  f.source.ApplyTxn(1, {UpdateOp::Insert(IntTuple({3, 5}))});
  f.source.ApplyTxn(0, {UpdateOp::Delete(IntTuple({2, 3}))});
  EXPECT_EQ(f.source.relation(1).CountOf(IntTuple({3, 5})), 1);
  EXPECT_EQ(f.source.relation(0).CountOf(IntTuple({2, 3})), 0);
  EXPECT_EQ(f.source.log(1).updates().size(), 1u);
  EXPECT_EQ(f.source.log(0).updates().size(), 1u);

  f.sim.Run();
  EXPECT_EQ(f.sink.messages.size(), 2u);
}

TEST(EcaSourceTest, EvaluatesBaseTerm) {
  Fixture f;
  // Term: ΔR2 = +(3,5), other positions from current relations.
  EcaTerm term;
  term.sign = 1;
  term.fixed.resize(3);
  Relation delta(f.view.rel_schema(1));
  delta.Add(IntTuple({3, 5}), 1);
  term.fixed[1] = delta;

  f.network.Send(0, 1, EcaQueryRequest{55, {term}});
  f.sim.Run();
  const auto* ans = std::get_if<EcaQueryAnswer>(&f.sink.messages[0]);
  ASSERT_NE(ans, nullptr);
  EXPECT_EQ(ans->query_id, 55);
  EXPECT_EQ(ans->result.DistinctSize(), 2u);
  EXPECT_TRUE(ans->result.Contains(IntTuple({1, 3, 3, 5, 5, 6})));
  EXPECT_TRUE(ans->result.Contains(IntTuple({2, 3, 3, 5, 5, 6})));
}

TEST(EcaSourceTest, SignedTermsSubtract) {
  Fixture f;
  Relation d1(f.view.rel_schema(0));
  d1.Add(IntTuple({2, 3}), 1);
  Relation d2(f.view.rel_schema(1));
  d2.Add(IntTuple({3, 7}), 1);

  // term1: ΔR1 ⋈ R2 ⋈ R3 (positive); term2: ΔR1 ⋈ ΔR2 ⋈ R3 (negative).
  EcaTerm t1;
  t1.sign = 1;
  t1.fixed.resize(3);
  t1.fixed[0] = d1;
  EcaTerm t2;
  t2.sign = -1;
  t2.fixed.resize(3);
  t2.fixed[0] = d1;
  t2.fixed[1] = d2;

  f.network.Send(0, 1, EcaQueryRequest{9, {t1, t2}});
  f.sim.Run();
  const auto* ans = std::get_if<EcaQueryAnswer>(&f.sink.messages[0]);
  ASSERT_NE(ans, nullptr);
  // R2 contains only (3,7), so term1 == term2's magnitude and the signed
  // sum cancels exactly.
  EXPECT_TRUE(ans->result.Empty());
}

TEST(EcaSourceTest, AtomicEvaluationSeesOneState) {
  // A query evaluates against the single site's consistent state: updates
  // applied before the query arrives are all visible, updates applied
  // after are all invisible.
  Fixture f;
  f.source.ApplyTxn(2, {UpdateOp::Delete(IntTuple({7, 8}))});

  EcaTerm term;
  term.sign = 1;
  term.fixed.resize(3);
  Relation delta(f.view.rel_schema(0));
  delta.Add(IntTuple({9, 3}), 1);
  term.fixed[0] = delta;

  f.network.Send(0, 1, EcaQueryRequest{1, {term}});
  f.sim.Run();
  const EcaQueryAnswer* ans = nullptr;
  for (const Message& m : f.sink.messages) {
    if (auto* a = std::get_if<EcaQueryAnswer>(&m)) ans = a;
  }
  ASSERT_NE(ans, nullptr);
  // (9,3) joins (3,7) joins (7,8) — but (7,8) was deleted before the
  // query arrived, so only the (3,7)x(7,8) path is gone.
  EXPECT_FALSE(ans->result.Contains(IntTuple({9, 3, 3, 7, 7, 8})));
}

TEST(EcaSourceTest, SnapshotAnswersEveryRelation) {
  Fixture f;
  f.network.Send(0, 1, SnapshotRequest{4});
  f.sim.Run();
  ASSERT_EQ(f.sink.messages.size(), 3u);
  std::set<int> rels;
  for (const Message& m : f.sink.messages) {
    const auto* snap = std::get_if<SnapshotAnswer>(&m);
    ASSERT_NE(snap, nullptr);
    rels.insert(snap->relation);
  }
  EXPECT_EQ(rels, (std::set<int>{0, 1, 2}));
}

}  // namespace
}  // namespace sweepmv
