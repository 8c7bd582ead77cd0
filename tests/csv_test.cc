#include "relational/csv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace sweepmv {
namespace {

TEST(CsvTest, ParseBasicInts) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A", "B"}),
                              "1,3\n2,3\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation.DistinctSize(), 2u);
  EXPECT_EQ(r.relation.CountOf(IntTuple({1, 3})), 1);
}

TEST(CsvTest, CommentsAndBlanksSkipped) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A"}),
                              "# header\n\n1\n   \n# tail\n2\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation.DistinctSize(), 2u);
}

TEST(CsvTest, CountsAndDeltas) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A", "B"}),
                              "7,8 @2\n5,6 @-1\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation.CountOf(IntTuple({7, 8})), 2);
  EXPECT_EQ(r.relation.CountOf(IntTuple({5, 6})), -1);
  EXPECT_TRUE(r.relation.HasNegative());
}

TEST(CsvTest, MixedTypes) {
  Schema schema(std::vector<Attribute>{{"name", ValueType::kString},
                                       {"score", ValueType::kDouble},
                                       {"id", ValueType::kInt}});
  CsvParseResult r = ParseCsv(schema, "west, 2.5, 7\n");
  ASSERT_TRUE(r.ok) << r.error;
  Tuple t{Value("west"), Value(2.5), Value(int64_t{7})};
  EXPECT_EQ(r.relation.CountOf(t), 1);
}

TEST(CsvTest, WhitespaceTrimmed) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A", "B"}),
                              "  1 ,\t3 \r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.relation.Contains(IntTuple({1, 3})));
}

TEST(CsvTest, ErrorArityMismatch) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A", "B"}), "1,2,3\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("expected 2 cells"), std::string::npos);
}

TEST(CsvTest, ErrorBadInteger) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A"}), "xyz\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not an integer"), std::string::npos);
}

TEST(CsvTest, ErrorBadCount) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A"}), "1 @two\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("bad count"), std::string::npos);
}

TEST(CsvTest, IntegersAtTheInt64Limits) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A"}),
                              "9223372036854775807\n"
                              "-9223372036854775808 @9223372036854775807\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation.CountOf(IntTuple({INT64_MAX})), 1);
  EXPECT_EQ(r.relation.CountOf(IntTuple({INT64_MIN})), INT64_MAX);
}

// Out-of-range integers are errors, not values clamped to the limits.
TEST(CsvTest, ErrorIntegerOutOfRange) {
  for (const char* cell : {"9223372036854775808", "-9223372036854775809",
                           "99999999999999999999999"}) {
    SCOPED_TRACE(cell);
    CsvParseResult r = ParseCsv(Schema::AllInts({"A", "B"}),
                                "1,2\n3," + std::string(cell) + "\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 2, cell 2"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("out of the int64 range"), std::string::npos);
  }
}

TEST(CsvTest, ErrorCountOutOfRange) {
  for (const char* count : {"9223372036854775808", "-9223372036854775809"}) {
    SCOPED_TRACE(count);
    CsvParseResult r = ParseCsv(Schema::AllInts({"A"}),
                                "1 @" + std::string(count) + "\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 1"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("out of the int64 range"), std::string::npos);
  }
}

// A NaN cell would make two identical rows two entries that no `@-1` row
// could delete, and would break the order of every sorted walk.
TEST(CsvTest, ErrorNanDouble) {
  Schema schema(std::vector<Attribute>{{"id", ValueType::kInt},
                                       {"score", ValueType::kDouble}});
  for (const char* cell : {"nan", "NAN", "-nan", "nan(0x1)"}) {
    SCOPED_TRACE(cell);
    CsvParseResult r = ParseCsv(schema, "1, " + std::string(cell) + "\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 1, cell 2"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("NaN"), std::string::npos);
  }
}

TEST(CsvTest, InfinityAcceptedOverflowRejected) {
  Schema schema(std::vector<Attribute>{{"x", ValueType::kDouble}});
  CsvParseResult ok = ParseCsv(schema, "inf\n-inf\n1e308\n");
  ASSERT_TRUE(ok.ok) << ok.error;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ok.relation.CountOf(Tuple{Value(inf)}), 1);
  EXPECT_EQ(ok.relation.CountOf(Tuple{Value(-inf)}), 1);
  EXPECT_EQ(ok.relation.CountOf(Tuple{Value(1e308)}), 1);

  for (const char* cell : {"1e999", "-1e999"}) {
    SCOPED_TRACE(cell);
    CsvParseResult r = ParseCsv(schema, std::string(cell) + "\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 1, cell 1"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("out of the double range"), std::string::npos);
  }
}

TEST(CsvTest, ErrorReportsLineNumber) {
  CsvParseResult r = ParseCsv(Schema::AllInts({"A"}), "1\n2\nbad\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  Relation original(Schema::AllInts({"A", "B"}));
  original.Add(IntTuple({1, 3}), 1);
  original.Add(IntTuple({7, 8}), 2);
  original.Add(IntTuple({5, 6}), -1);

  CsvParseResult r =
      ParseCsv(original.schema(), FormatCsv(original));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation, original);
}

TEST(CsvTest, RoundTripMixedTypes) {
  Schema schema(std::vector<Attribute>{{"s", ValueType::kString},
                                       {"d", ValueType::kDouble}});
  Relation original(schema);
  original.Add(Tuple{Value("alpha"), Value(1.5)}, 3);
  original.Add(Tuple{Value("beta"), Value(-0.25)}, 1);

  CsvParseResult r = ParseCsv(schema, FormatCsv(original));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.relation, original);
}

TEST(CsvTest, FormatIncludesSchemaComment) {
  Relation rel(Schema::AllInts({"A"}));
  rel.Add(IntTuple({1}), 1);
  std::string text = FormatCsv(rel);
  EXPECT_EQ(text.rfind("# schema: [A:int]", 0), 0u);
}

}  // namespace
}  // namespace sweepmv
