#include "relational/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/str.h"

namespace sweepmv {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(Trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  cells.push_back(Trim(current));
  return cells;
}

bool ParseCell(const std::string& cell, ValueType type, Value* out,
               std::string* error) {
  switch (type) {
    case ValueType::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(cell.c_str(), &end, 10);
      if (end == cell.c_str() || *end != '\0') {
        *error = StrFormat("'%s' is not an integer", cell.c_str());
        return false;
      }
      if (errno == ERANGE) {
        *error = StrFormat("'%s' is out of the int64 range", cell.c_str());
        return false;
      }
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        *error = StrFormat("'%s' is not a number", cell.c_str());
        return false;
      }
      // NaN equals nothing, itself included, and has no place in the
      // order every sorted walk of a relation relies on.
      if (std::isnan(v)) {
        *error = StrFormat("'%s' is NaN", cell.c_str());
        return false;
      }
      if (errno == ERANGE && std::isinf(v)) {
        *error = StrFormat("'%s' is out of the double range", cell.c_str());
        return false;
      }
      *out = Value(v);
      return true;
    }
    case ValueType::kString:
      *out = Value(cell);
      return true;
  }
  *error = "unknown value type";
  return false;
}

}  // namespace

CsvParseResult ParseCsv(const Schema& schema, const std::string& text) {
  CsvParseResult result;
  result.relation = Relation(schema);

  std::istringstream in(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;

    // Optional trailing multiplicity: "...@count" (the '@' must come
    // after the last comma so string cells keep their at-signs).
    int64_t count = 1;
    size_t at = line.rfind('@');
    size_t last_comma = line.rfind(',');
    if (at != std::string::npos &&
        (last_comma == std::string::npos || at > last_comma)) {
      std::string count_text = Trim(line.substr(at + 1));
      char* end = nullptr;
      errno = 0;
      count = std::strtoll(count_text.c_str(), &end, 10);
      if (end == count_text.c_str() || *end != '\0') {
        result.error = StrFormat("line %d: bad count '%s'", line_number,
                                 count_text.c_str());
        return result;
      }
      if (errno == ERANGE) {
        result.error = StrFormat("line %d: count '%s' is out of the int64 "
                                 "range", line_number, count_text.c_str());
        return result;
      }
      line = Trim(line.substr(0, at));
    }

    std::vector<std::string> cells = SplitCells(line);
    if (cells.size() != schema.arity()) {
      result.error =
          StrFormat("line %d: expected %zu cells, found %zu", line_number,
                    schema.arity(), cells.size());
      return result;
    }
    std::vector<Value> values(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      std::string cell_error;
      if (!ParseCell(cells[i], schema.attr(i).type, &values[i],
                     &cell_error)) {
        result.error = StrFormat("line %d, cell %zu: %s", line_number,
                                 i + 1, cell_error.c_str());
        return result;
      }
    }
    result.relation.Add(Tuple(std::move(values)), count);
  }
  result.ok = true;
  return result;
}

std::string FormatCsv(const Relation& relation) {
  std::string out = "# schema: " + relation.schema().ToDisplayString() +
                    "\n";
  for (const auto& [t, c] : relation.SortedEntries()) {
    std::vector<std::string> cells;
    for (const Value& v : t.values()) {
      switch (v.type()) {
        case ValueType::kInt:
          cells.push_back(std::to_string(v.AsInt()));
          break;
        case ValueType::kDouble:
          cells.push_back(StrFormat("%g", v.AsDouble()));
          break;
        case ValueType::kString:
          cells.push_back(v.AsString());
          break;
      }
    }
    out += Join(cells, ",");
    if (c != 1) out += StrFormat(" @%lld", static_cast<long long>(c));
    out += "\n";
  }
  return out;
}

}  // namespace sweepmv
