// CSV import/export for relations.
//
// Lets examples and downstream users load base relations from plain text
// and dump views back out. Format: one tuple per line, comma-separated
// cells typed by the target schema; an optional trailing `@count` sets the
// multiplicity (defaults to 1; negative counts express deltas). Lines that
// are empty or start with '#' are skipped. String cells are unquoted and
// must not contain commas. Integer cells and counts must fit in int64, and
// double cells must not be NaN or overflow to infinity (the literals `inf`
// and `-inf` are accepted); anything else is a line and cell error, never
// a clamped value.

#ifndef SWEEPMV_RELATIONAL_CSV_H_
#define SWEEPMV_RELATIONAL_CSV_H_

#include <string>

#include "relational/relation.h"
#include "relational/schema.h"

namespace sweepmv {

struct CsvParseResult {
  bool ok = false;
  std::string error;  // set when !ok
  Relation relation;  // valid only when ok
};

// Parses `text` into a relation with the given schema.
CsvParseResult ParseCsv(const Schema& schema, const std::string& text);

// Renders a relation as CSV (deterministic order, counts as `@k` when
// k != 1), with a leading `# schema: ...` comment.
std::string FormatCsv(const Relation& relation);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_CSV_H_
