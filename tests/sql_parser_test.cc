#include "sql/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "relational/operators.h"

namespace sweepmv {
namespace {

Catalog PaperCatalog() {
  Catalog catalog;
  catalog.AddTable("R1", Schema::AllInts({"A", "B"}));
  catalog.AddTable("R2", Schema::AllInts({"C", "D"}));
  catalog.AddTable("R3", Schema::AllInts({"E", "F"}));
  return catalog;
}

TEST(SqlParserTest, PaperSection52Query) {
  // The query as printed in the paper (modulo its typo'd missing FROM).
  ParseViewResult result = ParseView(
      "SELECT R2.D, R3.F FROM R1, R2, R3 "
      "WHERE R1.B = R2.C AND R2.D = R3.E",
      PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;

  const ViewDef& view = result.view();
  EXPECT_EQ(view.num_relations(), 3);
  ASSERT_EQ(view.chain_keys(0).size(), 1u);
  EXPECT_EQ(view.chain_keys(0)[0], std::make_pair(1, 0));  // B = C
  ASSERT_EQ(view.chain_keys(1).size(), 1u);
  EXPECT_EQ(view.chain_keys(1)[0], std::make_pair(1, 0));  // D = E
  EXPECT_TRUE(view.selection().IsTrueLiteral());
  EXPECT_EQ(view.view_schema().arity(), 2u);
  EXPECT_EQ(view.view_schema().attr(0).name, "D");
  EXPECT_EQ(view.view_schema().attr(1).name, "F");

  // Evaluate on the Figure 5 database: must yield {(7,8)[2]}.
  Relation r1 = Relation::OfInts(view.rel_schema(0), {{1, 3}, {2, 3}});
  Relation r2 = Relation::OfInts(view.rel_schema(1), {{3, 7}});
  Relation r3 = Relation::OfInts(view.rel_schema(2), {{5, 6}, {7, 8}});
  Relation v = view.EvaluateFull({&r1, &r2, &r3});
  EXPECT_EQ(v.CountOf(IntTuple({7, 8})), 2);
}

TEST(SqlParserTest, SelectStarKeepsEverything) {
  ParseViewResult result = ParseView(
      "SELECT * FROM R1, R2 WHERE R1.B = R2.C", PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.view().view_schema().arity(), 4u);
}

TEST(SqlParserTest, UnqualifiedColumnsResolveWhenUnique) {
  ParseViewResult result =
      ParseView("SELECT D, F FROM R1, R2, R3 WHERE B = C AND D = E",
                PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.view().view_schema().attr(0).name, "D");
}

TEST(SqlParserTest, NonJoinPredicatesBecomeSelection) {
  ParseViewResult result = ParseView(
      "SELECT * FROM R1, R2 WHERE R1.B = R2.C AND R2.D > 10 AND R1.A != 3",
      PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  const ViewDef& view = result.view();
  EXPECT_EQ(view.chain_keys(0).size(), 1u);
  EXPECT_FALSE(view.selection().IsTrueLiteral());
  // (A,B,C,D): selection keeps D>10, A!=3.
  EXPECT_TRUE(view.selection().Eval(IntTuple({1, 3, 3, 11})));
  EXPECT_FALSE(view.selection().Eval(IntTuple({1, 3, 3, 9})));
  EXPECT_FALSE(view.selection().Eval(IntTuple({3, 3, 3, 11})));
}

TEST(SqlParserTest, NonAdjacentEqualityGoesToSelection) {
  // R1.A = R3.F links non-neighbours: it cannot be a chain key, so it
  // must filter the joined result instead.
  ParseViewResult result = ParseView(
      "SELECT * FROM R1, R2, R3 "
      "WHERE R1.B = R2.C AND R2.D = R3.E AND R1.A = R3.F",
      PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.view().selection().IsTrueLiteral());
  EXPECT_EQ(result.view().chain_keys(0).size(), 1u);
  EXPECT_EQ(result.view().chain_keys(1).size(), 1u);
}

TEST(SqlParserTest, MultipleJoinKeysBetweenNeighbours) {
  Catalog catalog;
  catalog.AddTable("L", Schema::AllInts({"X", "Y"}));
  catalog.AddTable("R", Schema::AllInts({"X", "Y"}));
  ParseViewResult result = ParseView(
      "SELECT * FROM L, R WHERE L.X = R.X AND L.Y = R.Y", catalog);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.view().chain_keys(0).size(), 2u);
}

TEST(SqlParserTest, StringAndFloatLiterals) {
  Catalog catalog;
  catalog.AddTable("T", Schema(std::vector<Attribute>{
                            {"name", ValueType::kString},
                            {"score", ValueType::kDouble}}));
  ParseViewResult result = ParseView(
      "SELECT * FROM T WHERE name = 'west' AND score >= 2.5", catalog);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.view().selection().Eval(
      Tuple{Value("west"), Value(3.0)}));
  EXPECT_FALSE(result.view().selection().Eval(
      Tuple{Value("east"), Value(3.0)}));
  EXPECT_FALSE(result.view().selection().Eval(
      Tuple{Value("west"), Value(2.0)}));
}

TEST(SqlParserTest, KeywordsCaseInsensitive) {
  ParseViewResult result = ParseView(
      "select R2.D from R1, R2 where R1.B = R2.C", PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
}

TEST(SqlParserTest, NotEqualsVariants) {
  ParseViewResult a =
      ParseView("SELECT * FROM R1 WHERE R1.A != 3", PaperCatalog());
  ParseViewResult b =
      ParseView("SELECT * FROM R1 WHERE R1.A <> 3", PaperCatalog());
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_FALSE(a.view().selection().Eval(IntTuple({3, 0})));
  EXPECT_FALSE(b.view().selection().Eval(IntTuple({3, 0})));
  EXPECT_TRUE(a.view().selection().Eval(IntTuple({4, 0})));
}

TEST(SqlParserTest, ErrorUnknownTable) {
  ParseViewResult result =
      ParseView("SELECT * FROM Nope", PaperCatalog());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown table"), std::string::npos);
}

TEST(SqlParserTest, ErrorUnknownColumn) {
  ParseViewResult result =
      ParseView("SELECT R1.Z FROM R1", PaperCatalog());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no attribute"), std::string::npos);
}

TEST(SqlParserTest, ErrorAmbiguousColumn) {
  Catalog catalog;
  catalog.AddTable("L", Schema::AllInts({"X"}));
  catalog.AddTable("R", Schema::AllInts({"X"}));
  ParseViewResult result = ParseView("SELECT X FROM L, R", catalog);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ambiguous"), std::string::npos);
}

TEST(SqlParserTest, ErrorSyntax) {
  EXPECT_FALSE(ParseView("SELECT FROM R1", PaperCatalog()).ok);
  EXPECT_FALSE(ParseView("R1 SELECT *", PaperCatalog()).ok);
  EXPECT_FALSE(ParseView("SELECT * FROM R1 WHERE", PaperCatalog()).ok);
  EXPECT_FALSE(
      ParseView("SELECT * FROM R1 WHERE R1.A =", PaperCatalog()).ok);
  EXPECT_FALSE(
      ParseView("SELECT * FROM R1 extra", PaperCatalog()).ok);
  EXPECT_FALSE(
      ParseView("SELECT * FROM R1 WHERE R1.A = 'oops", PaperCatalog()).ok);
}

TEST(SqlParserTest, NegativeIntegerLiteral) {
  ParseViewResult result =
      ParseView("SELECT * FROM R1 WHERE R1.A > -5", PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.view().selection().Eval(IntTuple({0, 0})));
  EXPECT_FALSE(result.view().selection().Eval(IntTuple({-6, 0})));
}

TEST(SqlParserTest, IntegerLiteralsAtTheInt64Limits) {
  ParseViewResult result = ParseView(
      "SELECT * FROM R1 WHERE R1.A = -9223372036854775808 AND "
      "R1.B = 9223372036854775807",
      PaperCatalog());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.view().selection().Eval(IntTuple({INT64_MIN, INT64_MAX})));
  EXPECT_FALSE(
      result.view().selection().Eval(IntTuple({INT64_MIN, INT64_MAX - 1})));
}

// Out-of-range constants are errors, not values clamped to the limits.
TEST(SqlParserTest, ErrorIntegerLiteralOutOfRange) {
  for (const char* literal : {"9223372036854775808", "-9223372036854775809",
                              "99999999999999999999999"}) {
    SCOPED_TRACE(literal);
    ParseViewResult result = ParseView(
        "SELECT * FROM R1 WHERE R1.A > " + std::string(literal),
        PaperCatalog());
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("out of the int64 range"), std::string::npos)
        << result.error;
  }
}

TEST(SqlParserTest, ErrorFloatLiteralOutOfRange) {
  Catalog catalog;
  catalog.AddTable("T", Schema(std::vector<Attribute>{
                            {"score", ValueType::kDouble}}));
  const std::string huge = "1" + std::string(400, '0') + ".5";
  ParseViewResult result =
      ParseView("SELECT * FROM T WHERE score < " + huge, catalog);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("out of the double range"), std::string::npos)
      << result.error;
}

}  // namespace
}  // namespace sweepmv
