#include "sim/message.h"

#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

namespace sweepmv {
namespace {

Relation TwoTuples() {
  return Relation::OfInts(Schema::AllInts({"A", "B"}), {{1, 2}, {3, 4}});
}

TEST(MessageTest, PayloadOfUpdateMessage) {
  Update u;
  u.delta = TwoTuples();
  EXPECT_EQ(PayloadTuples(Message{UpdateMessage{u}}), 2);
}

TEST(MessageTest, PayloadOfSweepQueryAndAnswer) {
  PartialDelta pd;
  pd.lo = 0;
  pd.hi = 0;
  pd.rel = TwoTuples();
  EXPECT_EQ(PayloadTuples(Message{QueryRequest{1, 0, false, pd}}), 2);
  EXPECT_EQ(PayloadTuples(Message{QueryAnswer{1, pd}}), 2);
}

TEST(MessageTest, PayloadOfEcaQueryCountsFixedDeltas) {
  EcaTerm t1;
  t1.sign = 1;
  t1.fixed.resize(3);
  t1.fixed[0] = TwoTuples();
  EcaTerm t2;
  t2.sign = -1;
  t2.fixed.resize(3);
  t2.fixed[0] = TwoTuples();
  t2.fixed[2] = TwoTuples();
  EXPECT_EQ(PayloadTuples(Message{EcaQueryRequest{1, {t1, t2}}}), 6);
  EXPECT_EQ(PayloadTuples(Message{EcaQueryAnswer{1, TwoTuples()}}), 2);
}

TEST(MessageTest, PayloadOfSnapshots) {
  EXPECT_EQ(PayloadTuples(Message{SnapshotRequest{1}}), 0);
  EXPECT_EQ(PayloadTuples(Message{SnapshotAnswer{1, 0, TwoTuples()}}), 2);
}

TEST(MessageTest, ClassNames) {
  EXPECT_STREQ(MessageClassName(MessageClass::kUpdateNotification),
               "update");
  EXPECT_STREQ(MessageClassName(MessageClass::kQueryRequest), "query");
  EXPECT_STREQ(MessageClassName(MessageClass::kQueryAnswer), "answer");
}

TEST(MessageTest, EveryVariantHasAClass) {
  Update u;
  u.delta = TwoTuples();
  PartialDelta pd;
  pd.rel = TwoTuples();
  EXPECT_EQ(ClassOf(Message{UpdateMessage{u}}),
            MessageClass::kUpdateNotification);
  EXPECT_EQ(ClassOf(Message{QueryRequest{1, 0, true, pd}}),
            MessageClass::kQueryRequest);
  EXPECT_EQ(ClassOf(Message{QueryAnswer{1, pd}}),
            MessageClass::kQueryAnswer);
}

// --- MessageDigest ----------------------------------------------------------

PartialDelta Partial() {
  PartialDelta pd;
  pd.lo = 1;
  pd.hi = 1;
  pd.rel = TwoTuples();
  return pd;
}

EcaTerm Term(int sign) {
  EcaTerm term;
  term.sign = sign;
  term.fixed.resize(3);
  term.fixed[1] = TwoTuples();
  return term;
}

std::shared_ptr<const Message> Payload() {
  return std::make_shared<const Message>(QueryAnswer{7, Partial(), 2});
}

// One message of every alternative, in variant order, built afresh on
// each call so that no two calls share a relation or a payload.
std::vector<Message> OneOfEach() {
  Update u;
  u.id = 11;
  u.relation = 1;
  u.delta = TwoTuples();
  u.applied_at = 40;
  return {UpdateMessage{u},
          QueryRequest{7, 2, true, Partial(), 3},
          QueryAnswer{7, Partial(), 3},
          EcaQueryRequest{8, {Term(1), Term(-1)}, 3},
          EcaQueryAnswer{8, TwoTuples(), 3},
          SnapshotRequest{9, 3},
          SnapshotAnswer{9, 2, TwoTuples(), 3},
          SessionDatagram{5, 4, -1, 3, Payload()}};
}

TEST(MessageTest, DigestIsContentForEveryAlternative) {
  const std::vector<Message> a = OneOfEach();
  const std::vector<Message> b = OneOfEach();
  ASSERT_EQ(a.size(), std::variant_size_v<Message>);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index(), i);
    EXPECT_EQ(MessageDigest(a[i]), MessageDigest(b[i]))
        << "alternative " << i;
    EXPECT_NE(MessageDigest(a[i]), 0u) << "alternative " << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(MessageDigest(a[i]), MessageDigest(a[j]))
          << "alternatives " << j << " and " << i;
    }
  }
}

// Expects `change`, applied to a copy of `base`, to move its digest.
template <class M, class F>
void ExpectDigestMoves(const char* what, const M& base, F change) {
  M changed = base;
  change(changed);
  EXPECT_NE(MessageDigest(Message{changed}), MessageDigest(Message{base}))
      << what;
}

TEST(MessageTest, EveryFieldIsInTheDigest) {
  const std::vector<Message> all = OneOfEach();

  const auto& update = std::get<UpdateMessage>(all[0]);
  ExpectDigestMoves("update id", update,
                    [](UpdateMessage& m) { ++m.update.id; });
  ExpectDigestMoves("update relation", update,
                    [](UpdateMessage& m) { ++m.update.relation; });
  ExpectDigestMoves("update time", update,
                    [](UpdateMessage& m) { ++m.update.applied_at; });
  ExpectDigestMoves("update count", update, [](UpdateMessage& m) {
    m.update.delta.Add(IntTuple({1, 2}), 1);
  });

  const auto& query = std::get<QueryRequest>(all[1]);
  ExpectDigestMoves("query id", query, [](QueryRequest& m) { ++m.query_id; });
  ExpectDigestMoves("query epoch", query, [](QueryRequest& m) { ++m.epoch; });
  ExpectDigestMoves("query target", query,
                    [](QueryRequest& m) { ++m.target_rel; });
  ExpectDigestMoves("query side", query,
                    [](QueryRequest& m) { m.extend_left = false; });
  ExpectDigestMoves("query span lo", query,
                    [](QueryRequest& m) { --m.partial.lo; });
  ExpectDigestMoves("query span hi", query,
                    [](QueryRequest& m) { ++m.partial.hi; });
  ExpectDigestMoves("query count", query, [](QueryRequest& m) {
    m.partial.rel.Add(IntTuple({3, 4}), -1);
  });

  const auto& answer = std::get<QueryAnswer>(all[2]);
  ExpectDigestMoves("answer id", answer, [](QueryAnswer& m) { ++m.query_id; });
  ExpectDigestMoves("answer epoch", answer, [](QueryAnswer& m) { ++m.epoch; });
  ExpectDigestMoves("answer span", answer,
                    [](QueryAnswer& m) { ++m.partial.hi; });
  ExpectDigestMoves("answer count", answer, [](QueryAnswer& m) {
    m.partial.rel.Add(IntTuple({1, 2}), 1);
  });

  const auto& eca = std::get<EcaQueryRequest>(all[3]);
  ExpectDigestMoves("eca id", eca, [](EcaQueryRequest& m) { ++m.query_id; });
  ExpectDigestMoves("eca epoch", eca, [](EcaQueryRequest& m) { ++m.epoch; });
  ExpectDigestMoves("eca sign", eca,
                    [](EcaQueryRequest& m) { m.terms[1].sign = 1; });
  ExpectDigestMoves("eca slot present", eca,
                    [](EcaQueryRequest& m) { m.terms[0].fixed[1].reset(); });
  ExpectDigestMoves("eca slot absent", eca, [](EcaQueryRequest& m) {
    m.terms[0].fixed[2] = Relation(TwoTuples().schema());
  });
  ExpectDigestMoves("eca count", eca, [](EcaQueryRequest& m) {
    m.terms[1].fixed[1]->Add(IntTuple({3, 4}), 1);
  });
  ExpectDigestMoves("eca terms", eca,
                    [](EcaQueryRequest& m) { m.terms.pop_back(); });

  const auto& eca_answer = std::get<EcaQueryAnswer>(all[4]);
  ExpectDigestMoves("eca answer id", eca_answer,
                    [](EcaQueryAnswer& m) { ++m.query_id; });
  ExpectDigestMoves("eca answer epoch", eca_answer,
                    [](EcaQueryAnswer& m) { ++m.epoch; });
  ExpectDigestMoves("eca answer count", eca_answer, [](EcaQueryAnswer& m) {
    m.result.Add(IntTuple({1, 2}), -1);
  });

  const auto& snapshot = std::get<SnapshotRequest>(all[5]);
  ExpectDigestMoves("snapshot id", snapshot,
                    [](SnapshotRequest& m) { ++m.query_id; });
  ExpectDigestMoves("snapshot epoch", snapshot,
                    [](SnapshotRequest& m) { ++m.epoch; });

  const auto& snapshot_answer = std::get<SnapshotAnswer>(all[6]);
  ExpectDigestMoves("snapshot answer id", snapshot_answer,
                    [](SnapshotAnswer& m) { ++m.query_id; });
  ExpectDigestMoves("snapshot answer relation", snapshot_answer,
                    [](SnapshotAnswer& m) { ++m.relation; });
  ExpectDigestMoves("snapshot answer epoch", snapshot_answer,
                    [](SnapshotAnswer& m) { ++m.epoch; });
  ExpectDigestMoves("snapshot answer count", snapshot_answer,
                    [](SnapshotAnswer& m) {
                      m.snapshot.Add(IntTuple({3, 4}), 1);
                    });

  const auto& datagram = std::get<SessionDatagram>(all[7]);
  ExpectDigestMoves("datagram seq", datagram,
                    [](SessionDatagram& m) { ++m.seq; });
  ExpectDigestMoves("datagram base", datagram,
                    [](SessionDatagram& m) { ++m.base_seq; });
  ExpectDigestMoves("datagram ack", datagram,
                    [](SessionDatagram& m) { ++m.cum_ack; });
  ExpectDigestMoves("datagram epoch", datagram,
                    [](SessionDatagram& m) { ++m.epoch; });
}

TEST(MessageTest, DatagramDigestsItsPayloadsContent) {
  // Two payloads equal in content, held by distinct pointers.
  const SessionDatagram a{5, 4, -1, 3, Payload()};
  const SessionDatagram b{5, 4, -1, 3, Payload()};
  ASSERT_NE(a.payload, b.payload);
  EXPECT_EQ(MessageDigest(Message{a}), MessageDigest(Message{b}));

  SessionDatagram other = a;
  auto changed = std::make_shared<Message>(*a.payload);
  std::get<QueryAnswer>(*changed).partial.rel.Add(IntTuple({1, 2}), 1);
  other.payload = changed;
  EXPECT_NE(MessageDigest(Message{other}), MessageDigest(Message{a}));
}

TEST(MessageTest, NullPayloadDigestsApartFromAPresentOne) {
  const SessionDatagram ack{-1, 4, 6, 3, nullptr};
  const SessionDatagram data{-1, 4, 6, 3, Payload()};
  EXPECT_NE(MessageDigest(Message{ack}), MessageDigest(Message{data}));
  EXPECT_NE(MessageDigest(Message{ack}), 0u);
}

}  // namespace
}  // namespace sweepmv
