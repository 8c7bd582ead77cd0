#include "relational/value.h"

#include <mutex>
#include <ostream>
#include <unordered_set>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

namespace {

// Intern pool: one node per distinct text, never erased. Node-based
// storage keeps every element's address stable across rehashing, so the
// pointers InternString hands out stay valid until the process exits.
struct InternedTextHash {
  size_t operator()(const InternedString& s) const { return s.hash; }
};

struct InternPool {
  std::mutex mu;
  std::unordered_set<InternedString, InternedTextHash> texts;
};

InternPool& Pool() {
  static InternPool* pool = new InternPool();  // leaked: outlives all Values
  return *pool;
}

}  // namespace

const InternedString* InternString(std::string text) {
  size_t hash = std::hash<std::string>{}(text);
  InternedString key{std::move(text), hash};
  InternPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  return &*pool.texts.insert(std::move(key)).first;
}

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

int64_t Value::AsInt() const {
  SWEEP_CHECK_MSG(type() == ValueType::kInt, "Value is not an int");
  return int_;
}

double Value::AsDouble() const {
  SWEEP_CHECK_MSG(type() == ValueType::kDouble, "Value is not a double");
  return double_;
}

const std::string& Value::AsString() const {
  SWEEP_CHECK_MSG(type() == ValueType::kString, "Value is not a string");
  return string_->text;
}

std::string Value::ToDisplayString() const {
  switch (type_) {
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kDouble:
      return StrFormat("%g", double_);
    case ValueType::kString:
      return "\"" + string_->text + "\"";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToDisplayString();
}

}  // namespace sweepmv
