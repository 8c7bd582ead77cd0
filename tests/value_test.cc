#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sweepmv {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s("abc");
  EXPECT_EQ(i.type(), ValueType::kInt);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, EqualityWithinType) {
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_NE(Value(int64_t{7}), Value(int64_t{8}));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  EXPECT_NE(Value("x"), Value("y"));
}

TEST(ValueTest, CrossTypeNeverEqual) {
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_NE(Value(int64_t{1}), Value("1"));
}

TEST(ValueTest, OrderingWithinType) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(1.0), Value(2.0));
}

TEST(ValueTest, OrderingAcrossTypesIsByTypeTag) {
  // int < double < string in the type tag order.
  EXPECT_LT(Value(int64_t{1000}), Value(0.5));
  EXPECT_LT(Value(1000.0), Value("a"));
}

TEST(ValueTest, HashEqualValuesAgree) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("s").Hash(), Value("s").Hash());
}

TEST(ValueTest, HashDistinguishesTypeTag) {
  // Not a strict requirement for correctness, but the mixing should make
  // int 0 and double 0.0 collide only by astronomical accident.
  EXPECT_NE(Value(int64_t{0}).Hash(), Value(0.0).Hash());
}

// Golden hashes. Tuple hashes, shard ownership, unordered iteration
// order, state fingerprints and checkpoint bytes all depend on them, so a
// change to the cell's layout must leave them put.
TEST(ValueTest, GoldenIntHashes) {
  EXPECT_EQ(Value(int64_t{0}).Hash(), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(Value(int64_t{1}).Hash(), 0x9e3779b97f4a7c54ULL);
  EXPECT_EQ(Value(int64_t{-1}).Hash(), 0x21c8864680b5842bULL);
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).Hash(),
            0x3e3779b97f4a7c15ULL);
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::max()).Hash(),
            0xc1c8864680b5842bULL);
}

TEST(ValueTest, GoldenDoubleHashes) {
  EXPECT_EQ(Value(2.5).Hash(), 0xbc802b1d54bb0d5fULL);
  EXPECT_EQ(Value(0.0).Hash(), 0x9e3779b97f4a7c16ULL);
  EXPECT_EQ(Value(-0.0).Hash(), 0x9e3779b97f4a7c16ULL);
  EXPECT_EQ(Value(0.0), Value(-0.0));
}

// Four threads intern overlapping texts at once; each text must still map
// to exactly one buffer.
TEST(ValueTest, ConcurrentInterningIsCanonical) {
  constexpr int kThreads = 4;
  constexpr int kTexts = 512;
  std::vector<std::vector<const InternedString*>> seen(
      kThreads, std::vector<const InternedString*>(kTexts));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      // Two threads walk the texts forward and two backward, so first
      // inserts of a text race each other and lookups of the same text.
      for (int i = 0; i < kTexts; ++i) {
        int text = t % 2 == 0 ? i : kTexts - 1 - i;
        seen[t][text] =
            InternString("concurrent-intern-" + std::to_string(text));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int text = 0; text < kTexts; ++text) {
    const InternedString* canonical = seen[0][text];
    ASSERT_NE(canonical, nullptr);
    EXPECT_EQ(canonical->text, "concurrent-intern-" + std::to_string(text));
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][text], canonical) << "text " << text;
    }
    EXPECT_EQ(InternString(canonical->text), canonical);
  }
}

TEST(ValueTest, DisplayString) {
  EXPECT_EQ(Value(int64_t{7}).ToDisplayString(), "7");
  EXPECT_EQ(Value("ab").ToDisplayString(), "\"ab\"");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
}

TEST(ValueTest, UsableInOrderedSet) {
  std::set<Value> values{Value(int64_t{3}), Value(int64_t{1}),
                         Value(int64_t{2})};
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(values.begin()->AsInt(), 1);
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt), "int");
  EXPECT_STREQ(ValueTypeName(ValueType::kDouble), "double");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
}

}  // namespace
}  // namespace sweepmv
