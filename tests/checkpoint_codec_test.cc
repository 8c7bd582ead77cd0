// Byte pins for the checkpoint codec's leaf formats (core/checkpoint.h).
//
// The golden walks in state_golden_test.cc checkpoint only the worked
// example's small non-negative ints, so nothing there pins the order in
// which a relation's entries are written for negative or extreme keys,
// for ties on the leading columns, or for schemas led by a double or a
// string. These tests do:
//
//   * primitives and values as exact hex;
//   * hand-picked relations as FNV-1a plus length, and checked against a
//     reference encoder that spells the format out byte by byte and
//     orders the entries by copying them out of the count map and
//     std::sort-ing the copies;
//   * seeded random relations over every schema shape, against the same
//     reference encoder, each decoded back by CheckpointReader.
//
// The pinned constants were computed once and are never regenerated: a
// change here means the checkpoint format or its entry order changed.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sweepmv {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

template <typename Write>
std::string HexOf(Write write) {
  CheckpointWriter w;
  write(w);
  return Hex(w.Take());
}

// ---- Reference encoder: shares no code with the writer or with
// Relation::SortedEntries.

void RefI64(std::string& out, int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((u >> shift) & 0xff));
  }
}

void RefString(std::string& out, const std::string& s) {
  RefI64(out, static_cast<int64_t>(s.size()));
  out += s;
}

void RefValue(std::string& out, const Value& v) {
  out.push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kInt:
      RefI64(out, v.AsInt());
      return;
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      int64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      RefI64(out, bits);
      return;
    }
    case ValueType::kString:
      RefString(out, v.AsString());
      return;
  }
  ADD_FAILURE() << "unknown value type";
}

std::string RefRelation(const Relation& r) {
  std::string out;
  RefI64(out, static_cast<int64_t>(r.schema().arity()));
  for (const Attribute& a : r.schema().attrs()) {
    RefString(out, a.name);
    out.push_back(static_cast<char>(a.type));
  }
  std::vector<std::pair<Tuple, int64_t>> entries(r.entries().begin(),
                                                 r.entries().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  RefI64(out, static_cast<int64_t>(entries.size()));
  for (const auto& [tuple, count] : entries) {
    RefI64(out, static_cast<int64_t>(tuple.arity()));
    for (const Value& v : tuple.values()) RefValue(out, v);
    RefI64(out, count);
  }
  return out;
}

std::string Encode(const Relation& r) {
  CheckpointWriter w;
  w.WriteRelation(r);
  return w.Take();
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Encodes `r`, checks the bytes against the reference encoder, and decodes
// them back into an equal relation.
void ExpectCodecMatchesReference(const Relation& r) {
  const std::string bytes = Encode(r);
  EXPECT_EQ(Hex(bytes), Hex(RefRelation(r)));
  CheckpointReader reader(bytes);
  const Relation decoded = reader.ReadRelation();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.schema(), r.schema());
  EXPECT_EQ(decoded, r);
}

Schema MakeSchema(const std::vector<ValueType>& types) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < types.size(); ++i) {
    attrs.push_back({std::string(1, static_cast<char>('a' + i)), types[i]});
  }
  return Schema(std::move(attrs));
}

TEST(CheckpointCodecTest, PrimitiveBytes) {
  EXPECT_EQ(HexOf([](auto& w) { w.WriteU8(0xab); }), "ab");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteBool(true); }), "01");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteI32(-1); }), "ffffffff");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteI32(0x01020304); }), "04030201");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteI64(kMin); }), "0000000000000080");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteI64(kMax); }), "ffffffffffffff7f");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteF64(-0.0); }), "0000000000000080");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteF64(2.5); }), "0000000000000440");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteString(""); }), "0000000000000000");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteString("ab"); }),
            "0200000000000000"
            "6162");
}

TEST(CheckpointCodecTest, ValueAndTupleBytes) {
  EXPECT_EQ(HexOf([](auto& w) { w.WriteValue(Value(int64_t{-2})); }),
            "00"
            "feffffffffffffff");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteValue(Value(-kInf)); }),
            "01"
            "000000000000f0ff");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteValue(Value("x")); }),
            "02"
            "0100000000000000"
            "78");
  EXPECT_EQ(HexOf([](auto& w) { w.WriteTuple(Tuple()); }),
            "0000000000000000");
  EXPECT_EQ(HexOf([](auto& w) {
              w.WriteTuple(Tuple{Value(int64_t{1}), Value("ab")});
            }),
            "0200000000000000"                    // arity
            "00" "0100000000000000"               // int 1
            "02" "0200000000000000" "6162");      // string "ab"
}

TEST(CheckpointCodecTest, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.WriteI32(-1);
  w.WriteI64(kMin);
  w.WriteI64(kMax);
  w.WriteF64(-0.0);
  w.WriteF64(2.5);
  w.WriteString("");
  w.WriteString("ab");
  w.WriteBool(false);
  const std::string bytes = w.Take();
  CheckpointReader r(bytes);
  EXPECT_EQ(r.ReadI32(), -1);
  EXPECT_EQ(r.ReadI64(), kMin);
  EXPECT_EQ(r.ReadI64(), kMax);
  const double negative_zero = r.ReadF64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(r.ReadF64(), 2.5);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), "ab");
  EXPECT_FALSE(r.ReadBool());
  EXPECT_TRUE(r.AtEnd());
}

// The whole layout of one small relation, field by field.
TEST(CheckpointCodecTest, ArityOneRelationBytes) {
  Relation r(MakeSchema({ValueType::kInt}));
  r.Add(IntTuple({0}), 2);
  r.Add(IntTuple({-1}), -1);
  EXPECT_EQ(Hex(Encode(r)),
            "0100000000000000"                  // schema arity
            "0100000000000000" "61" "00"        // "a": int
            "0200000000000000"                  // entries
            "0100000000000000"                  // (-1)
            "00" "ffffffffffffffff"
            "ffffffffffffffff"                  // count -1
            "0100000000000000"                  // (0)
            "00" "0000000000000000"
            "0200000000000000");                // count 2
  ExpectCodecMatchesReference(r);
}

struct NamedRelation {
  const char* name;
  Relation relation;
};

std::vector<NamedRelation> PinnedRelations() {
  std::vector<NamedRelation> pins;

  // Negative and extreme ints in both leading columns, with every sign
  // combination, and ties on both leading columns broken by the third.
  Relation ints(MakeSchema({ValueType::kInt, ValueType::kInt,
                            ValueType::kInt}));
  const int64_t extremes[] = {kMin, kMin + 1, -2, -1, 0, 1, kMax - 1, kMax};
  int64_t count = 1;
  for (int64_t a : extremes) {
    for (int64_t b : extremes) {
      ints.Add(IntTuple({a, b, a ^ b}), count);
      count = count == 3 ? -2 : count + 1;
    }
  }
  for (int64_t c : {kMax, int64_t{5}, int64_t{-5}, kMin, int64_t{0}}) {
    ints.Add(IntTuple({-1, kMax, c}), c < 0 ? -1 : 1);
    ints.Add(IntTuple({kMin, -1, c}), 2);
  }
  pins.push_back({"extreme_ints", ints});

  // Led by a double (incl. infinities and a negative zero), then an int.
  Relation doubles(MakeSchema({ValueType::kDouble, ValueType::kInt}));
  for (double d : {-kInf, -2.5, -0.0, 1e-300, 0.5, 1e300, kInf}) {
    doubles.Add(Tuple{Value(d), Value(int64_t{3})}, 1);
    doubles.Add(Tuple{Value(d), Value(int64_t{-3})}, -1);
  }
  pins.push_back({"double_led", doubles});

  // Led by a string; texts that order differently by length and bytes.
  Relation strings(MakeSchema({ValueType::kString, ValueType::kInt}));
  for (const char* s : {"b", "", "ab", "a", "ba", "B"}) {
    strings.Add(Tuple{Value(s), Value(int64_t{-1})}, 1);
    strings.Add(Tuple{Value(s), Value(kMax)}, 2);
  }
  pins.push_back({"string_led", strings});

  // An int first column but a string second: not both leading ints.
  Relation int_string(MakeSchema({ValueType::kInt, ValueType::kString}));
  for (int64_t k : {int64_t{2}, kMin, int64_t{-7}}) {
    int_string.Add(Tuple{Value(k), Value("y")}, 1);
    int_string.Add(Tuple{Value(k), Value("x")}, -4);
  }
  pins.push_back({"int_string", int_string});

  // Arity 1.
  Relation unary(MakeSchema({ValueType::kInt}));
  for (int64_t k : extremes) unary.Add(IntTuple({k}), k < 0 ? -1 : 1);
  pins.push_back({"arity_1", unary});

  // Empty relations: one with attributes, one with the arity-0 schema.
  pins.push_back(
      {"empty", Relation(MakeSchema({ValueType::kInt, ValueType::kInt}))});
  pins.push_back({"empty_arity_0", Relation()});

  // The arity-0 schema checks no tuple, so cells of any type and tuples
  // of any arity share one relation.
  Relation mixed;
  mixed.Add(IntTuple({2, 1}), 1);
  mixed.Add(IntTuple({2, 1, 0}), -1);
  mixed.Add(IntTuple({-3}), 2);
  mixed.Add(Tuple(), 1);
  mixed.Add(Tuple{Value("x"), Value(int64_t{1})}, 1);
  mixed.Add(Tuple{Value(1.5), Value(int64_t{1})}, 3);
  mixed.Add(Tuple{Value(int64_t{2}), Value(1.5)}, 1);
  pins.push_back({"mixed_arity_0", mixed});

  return pins;
}

TEST(CheckpointCodecTest, PinnedRelations) {
  const std::pair<uint64_t, size_t> expected[] = {
      {0x0a8e9e2dd4de4ec7ull, 2669},  // extreme_ints
      {0xd4134b3e5aaa1391ull, 512},   // double_led
      {0x3d12f9849aea5edcull, 458},   // string_led
      {0x644060869c960379ull, 246},   // int_string
      {0x63960f9ee22c4d6cull, 226},   // arity_1
      {0x491b4e05a86494fcull, 36},    // empty
      {0x88201fb960ff6465ull, 16},    // empty_arity_0
      {0x5b6d955aaea272c4ull, 237},   // mixed_arity_0
  };
  const std::vector<NamedRelation> pins = PinnedRelations();
  ASSERT_EQ(pins.size(), std::size(expected));
  for (size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE(pins[i].name);
    const std::string bytes = Encode(pins[i].relation);
    EXPECT_EQ(Fnv1a(bytes), expected[i].first);
    EXPECT_EQ(bytes.size(), expected[i].second);
    ExpectCodecMatchesReference(pins[i].relation);
  }
}

// Cells drawn from small domains that include the extremes, so random
// relations hit ties on the leading columns and every sign combination.
Value RandomCell(Rng& rng, ValueType type) {
  switch (type) {
    case ValueType::kInt: {
      const int64_t edge[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
      if (rng.Bernoulli(0.3)) return Value(edge[rng.Uniform(0, 6)]);
      return Value(rng.Uniform(-4, 4));
    }
    case ValueType::kDouble: {
      const double edge[] = {-kInf, -0.0, 0.0, 1e-300, kInf};
      if (rng.Bernoulli(0.3)) return Value(edge[rng.Uniform(0, 4)]);
      return Value(static_cast<double>(rng.Uniform(-4, 4)) / 2);
    }
    case ValueType::kString: {
      const char* texts[] = {"", "a", "ab", "b", "B", "ba"};
      return Value(texts[rng.Uniform(0, 5)]);
    }
  }
  return Value();
}

TEST(CheckpointCodecTest, RandomRelationsMatchReference) {
  using VT = ValueType;
  const std::vector<std::vector<VT>> shapes = {
      {VT::kInt, VT::kInt},
      {VT::kInt, VT::kInt, VT::kInt},
      {VT::kInt, VT::kInt, VT::kString, VT::kDouble},
      {VT::kInt},
      {VT::kInt, VT::kDouble},
      {VT::kInt, VT::kString},
      {VT::kDouble, VT::kInt, VT::kInt},
      {VT::kString, VT::kInt},
      {},
  };
  const VT any_type[] = {VT::kInt, VT::kDouble, VT::kString};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    for (const std::vector<VT>& shape : shapes) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " arity "
                                      << shape.size());
      Relation r(MakeSchema(shape));
      const int64_t rows = rng.Uniform(0, 60);
      for (int64_t i = 0; i < rows; ++i) {
        std::vector<Value> cells;
        if (shape.empty()) {
          // Unchecked schema: random arity and cell types.
          const int64_t arity = rng.Uniform(0, 3);
          for (int64_t c = 0; c < arity; ++c) {
            cells.push_back(RandomCell(rng, any_type[rng.Uniform(0, 2)]));
          }
        } else {
          for (VT type : shape) cells.push_back(RandomCell(rng, type));
        }
        int64_t count = rng.Uniform(-3, 3);
        if (count == 0) count = 4;
        r.Add(Tuple(std::move(cells)), count);
      }
      ExpectCodecMatchesReference(r);
    }
  }
}

}  // namespace
}  // namespace sweepmv
