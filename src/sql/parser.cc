#include "sql/parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/str.h"

namespace sweepmv {

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class TokKind {
  kIdent,
  kInt,
  kFloat,
  kString,
  kComma,
  kDot,
  kStar,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  size_t offset = 0;
};

std::string UpperCase(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

// Tokenizes `sql`; on failure fills `error` and returns false.
bool Lex(const std::string& sql, std::vector<Token>* tokens,
         std::string* error) {
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      tok.kind = TokKind::kIdent;
      tok.text = sql.substr(start, i - start);
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' &&
                i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '.')) {
        if (sql[i] == '.') is_float = true;
        ++i;
      }
      tok.kind = is_float ? TokKind::kFloat : TokKind::kInt;
      tok.text = sql.substr(start, i - start);
    } else if (c == '\'') {
      size_t start = ++i;
      while (i < n && sql[i] != '\'') ++i;
      if (i >= n) {
        *error = StrFormat("unterminated string literal at offset %zu",
                           tok.offset);
        return false;
      }
      tok.kind = TokKind::kString;
      tok.text = sql.substr(start, i - start);
      ++i;  // closing quote
    } else {
      switch (c) {
        case ',':
          tok.kind = TokKind::kComma;
          ++i;
          break;
        case '.':
          tok.kind = TokKind::kDot;
          ++i;
          break;
        case '*':
          tok.kind = TokKind::kStar;
          ++i;
          break;
        case '=':
          tok.kind = TokKind::kEq;
          ++i;
          break;
        case '!':
          if (i + 1 < n && sql[i + 1] == '=') {
            tok.kind = TokKind::kNe;
            i += 2;
          } else {
            *error = StrFormat("stray '!' at offset %zu", i);
            return false;
          }
          break;
        case '<':
          if (i + 1 < n && sql[i + 1] == '=') {
            tok.kind = TokKind::kLe;
            i += 2;
          } else if (i + 1 < n && sql[i + 1] == '>') {
            tok.kind = TokKind::kNe;
            i += 2;
          } else {
            tok.kind = TokKind::kLt;
            ++i;
          }
          break;
        case '>':
          if (i + 1 < n && sql[i + 1] == '=') {
            tok.kind = TokKind::kGe;
            i += 2;
          } else {
            tok.kind = TokKind::kGt;
            ++i;
          }
          break;
        default:
          *error = StrFormat("unexpected character '%c' at offset %zu", c,
                             i);
          return false;
      }
    }
    tokens->push_back(std::move(tok));
  }
  tokens->push_back(Token{TokKind::kEnd, "", n});
  return true;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct ColumnRef {
  std::string table;  // empty if unqualified
  std::string attr;
};

struct RawOperand {
  bool is_column = false;
  ColumnRef column;
  Value constant;
};

struct RawComparison {
  RawOperand lhs;
  CmpOp op = CmpOp::kEq;
  RawOperand rhs;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  bool Run(std::string* error) {
    if (!ExpectKeyword("SELECT", error)) return false;
    if (!ParseSelectList(error)) return false;
    if (!ExpectKeyword("FROM", error)) return false;
    if (!ParseTableList(error)) return false;
    if (IsKeyword("WHERE")) {
      ++pos_;
      if (!ParseConjunction(error)) return false;
    }
    if (Peek().kind != TokKind::kEnd) {
      *error = StrFormat("trailing input near '%s'", Peek().text.c_str());
      return false;
    }
    return true;
  }

  bool select_star = false;
  std::vector<ColumnRef> select_list;
  std::vector<std::string> tables;
  std::vector<RawComparison> comparisons;

 private:
  const Token& Peek() const { return tokens_[pos_]; }

  bool IsKeyword(const char* kw) const {
    return Peek().kind == TokKind::kIdent && UpperCase(Peek().text) == kw;
  }

  bool ExpectKeyword(const char* kw, std::string* error) {
    if (!IsKeyword(kw)) {
      *error = StrFormat("expected %s near '%s'", kw, Peek().text.c_str());
      return false;
    }
    ++pos_;
    return true;
  }

  bool ParseColumn(ColumnRef* out, std::string* error) {
    if (Peek().kind != TokKind::kIdent) {
      *error = StrFormat("expected a column near '%s'",
                         Peek().text.c_str());
      return false;
    }
    std::string first = tokens_[pos_++].text;
    if (Peek().kind == TokKind::kDot) {
      ++pos_;
      if (Peek().kind != TokKind::kIdent) {
        *error = "expected an attribute name after '.'";
        return false;
      }
      out->table = std::move(first);
      out->attr = tokens_[pos_++].text;
    } else {
      out->attr = std::move(first);
    }
    return true;
  }

  bool ParseSelectList(std::string* error) {
    if (Peek().kind == TokKind::kStar) {
      select_star = true;
      ++pos_;
      return true;
    }
    while (true) {
      ColumnRef col;
      if (!ParseColumn(&col, error)) return false;
      select_list.push_back(std::move(col));
      if (Peek().kind != TokKind::kComma) break;
      ++pos_;
    }
    return true;
  }

  bool ParseTableList(std::string* error) {
    while (true) {
      if (Peek().kind != TokKind::kIdent || IsKeyword("WHERE")) {
        *error = StrFormat("expected a table name near '%s'",
                           Peek().text.c_str());
        return false;
      }
      tables.push_back(tokens_[pos_++].text);
      if (Peek().kind != TokKind::kComma) break;
      ++pos_;
    }
    return true;
  }

  bool ParseOperand(RawOperand* out, std::string* error) {
    switch (Peek().kind) {
      case TokKind::kIdent:
        out->is_column = true;
        return ParseColumn(&out->column, error);
      case TokKind::kInt: {
        errno = 0;
        const long long v = std::strtoll(Peek().text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          *error = StrFormat("integer constant '%s' is out of the int64 range",
                             Peek().text.c_str());
          return false;
        }
        out->constant = Value(static_cast<int64_t>(v));
        ++pos_;
        return true;
      }
      case TokKind::kFloat: {
        errno = 0;
        const double v = std::strtod(Peek().text.c_str(), nullptr);
        if (errno == ERANGE && std::isinf(v)) {
          *error = StrFormat("constant '%s' is out of the double range",
                             Peek().text.c_str());
          return false;
        }
        out->constant = Value(v);
        ++pos_;
        return true;
      }
      case TokKind::kString:
        out->constant = Value(Peek().text);
        ++pos_;
        return true;
      default:
        *error = StrFormat("expected an operand near '%s'",
                           Peek().text.c_str());
        return false;
    }
  }

  bool ParseConjunction(std::string* error) {
    while (true) {
      RawComparison cmp;
      if (!ParseOperand(&cmp.lhs, error)) return false;
      switch (Peek().kind) {
        case TokKind::kEq:
          cmp.op = CmpOp::kEq;
          break;
        case TokKind::kNe:
          cmp.op = CmpOp::kNe;
          break;
        case TokKind::kLt:
          cmp.op = CmpOp::kLt;
          break;
        case TokKind::kLe:
          cmp.op = CmpOp::kLe;
          break;
        case TokKind::kGt:
          cmp.op = CmpOp::kGt;
          break;
        case TokKind::kGe:
          cmp.op = CmpOp::kGe;
          break;
        default:
          *error = StrFormat("expected a comparison operator near '%s'",
                             Peek().text.c_str());
          return false;
      }
      ++pos_;
      if (!ParseOperand(&cmp.rhs, error)) return false;
      comparisons.push_back(std::move(cmp));
      if (!IsKeyword("AND")) break;
      ++pos_;
    }
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Semantic analysis: resolve names, split join keys from selection.
// ---------------------------------------------------------------------

struct Resolver {
  const Catalog* catalog;
  std::vector<std::string> tables;
  std::vector<const Schema*> schemas;
  std::vector<int> offsets;  // joined-schema offset per table

  // Resolves a column to (table index, joined position); error otherwise.
  bool Resolve(const ColumnRef& col, int* table_idx, int* joined_pos,
               std::string* error) const {
    if (!col.table.empty()) {
      for (size_t t = 0; t < tables.size(); ++t) {
        if (tables[t] == col.table) {
          int local = schemas[t]->IndexOf(col.attr);
          if (local < 0) {
            *error = StrFormat("table %s has no attribute %s",
                               col.table.c_str(), col.attr.c_str());
            return false;
          }
          *table_idx = static_cast<int>(t);
          *joined_pos = offsets[t] + local;
          return true;
        }
      }
      *error = StrFormat("unknown table %s in column reference",
                         col.table.c_str());
      return false;
    }
    // Unqualified: must be unique across the FROM list.
    int found_table = -1;
    int found_pos = -1;
    for (size_t t = 0; t < tables.size(); ++t) {
      int local = schemas[t]->IndexOf(col.attr);
      if (local >= 0) {
        if (found_table >= 0) {
          *error = StrFormat("ambiguous column %s (qualify it)",
                             col.attr.c_str());
          return false;
        }
        found_table = static_cast<int>(t);
        found_pos = offsets[t] + local;
      }
    }
    if (found_table < 0) {
      *error = StrFormat("unknown column %s", col.attr.c_str());
      return false;
    }
    *table_idx = found_table;
    *joined_pos = found_pos;
    return true;
  }
};

}  // namespace

ParseViewResult ParseView(const std::string& sql, const Catalog& catalog) {
  ParseViewResult result;

  std::vector<Token> tokens;
  if (!Lex(sql, &tokens, &result.error)) return result;

  Parser parser(std::move(tokens));
  if (!parser.Run(&result.error)) return result;

  if (parser.tables.empty()) {
    result.error = "FROM list is empty";
    return result;
  }

  Resolver resolver;
  resolver.catalog = &catalog;
  resolver.tables = parser.tables;
  int offset = 0;
  for (const std::string& table : parser.tables) {
    const Schema* schema = catalog.Find(table);
    if (schema == nullptr) {
      result.error = StrFormat("unknown table %s", table.c_str());
      return result;
    }
    resolver.schemas.push_back(schema);
    resolver.offsets.push_back(offset);
    offset += static_cast<int>(schema->arity());
  }

  ViewDef::Builder builder;
  for (size_t t = 0; t < parser.tables.size(); ++t) {
    builder.AddRelation(parser.tables[t], *resolver.schemas[t]);
  }

  // Split WHERE conjuncts: a column=column equality between adjacent FROM
  // relations is a chain join key; everything else is selection.
  Predicate selection = Predicate::True();
  for (const RawComparison& cmp : parser.comparisons) {
    int lt = -1, lp = -1, rt = -1, rp = -1;
    if (cmp.lhs.is_column &&
        !resolver.Resolve(cmp.lhs.column, &lt, &lp, &result.error)) {
      return result;
    }
    if (cmp.rhs.is_column &&
        !resolver.Resolve(cmp.rhs.column, &rt, &rp, &result.error)) {
      return result;
    }

    if (cmp.op == CmpOp::kEq && cmp.lhs.is_column && cmp.rhs.is_column &&
        (lt - rt == 1 || rt - lt == 1)) {
      // Adjacent chain condition (normalize left-to-right).
      int left_table = lt < rt ? lt : rt;
      int left_pos = lt < rt ? lp : rp;
      int right_pos = lt < rt ? rp : lp;
      builder.JoinOn(left_table,
                     left_pos - resolver.offsets[static_cast<size_t>(
                                    left_table)],
                     right_pos - resolver.offsets[static_cast<size_t>(
                                     left_table + 1)]);
      continue;
    }

    Operand lhs = cmp.lhs.is_column ? Operand::Attr(lp)
                                    : Operand::Const(cmp.lhs.constant);
    Operand rhs = cmp.rhs.is_column ? Operand::Attr(rp)
                                    : Operand::Const(cmp.rhs.constant);
    selection = Predicate::And(
        selection, Predicate::Compare(std::move(lhs), cmp.op,
                                      std::move(rhs)));
  }
  builder.Select(std::move(selection));

  if (!parser.select_star) {
    std::vector<int> projection;
    for (const ColumnRef& col : parser.select_list) {
      int t = -1, p = -1;
      if (!resolver.Resolve(col, &t, &p, &result.error)) return result;
      projection.push_back(p);
    }
    builder.Project(std::move(projection));
  }

  result.view_ = builder.Build();
  result.ok = true;
  return result;
}

}  // namespace sweepmv
