// Typed cell values for tuples.
//
// The paper's model is a plain relational model; three scalar types (64-bit
// integer, double, string) cover everything the experiments and examples
// need. Values are ordered and hashable so they can serve as join keys and
// live in hash-based bag relations.
//
// A Value is a 16-byte, trivially copyable cell: a type tag and a union of
// the payloads. Strings are interned for the whole process: one immutable
// buffer with a precomputed hash per distinct text. Copying a Value is a
// 16-byte copy, not a refcount bump; string equality is a pointer compare
// and Hash() never rescans the bytes.

#ifndef SWEEPMV_RELATIONAL_VALUE_H_
#define SWEEPMV_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <utility>

namespace sweepmv {

enum class ValueType : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
};

// Returns a human-readable name ("int", "double", "string").
const char* ValueTypeName(ValueType type);

// One interned string payload: the text plus its hash, computed once.
// Instances are only created by the intern pool (value.cc) and are
// immutable afterwards, so sharing them across threads is safe.
struct InternedString {
  std::string text;
  size_t hash = 0;

  bool operator==(const InternedString&) const = default;
};

// Returns the canonical buffer for `text`: one per distinct text, kept
// until the process exits. Strings enter at run time only through SQL
// constants and checkpoint reads, so the pool is bounded by the distinct
// texts a process loads. Thread-safe.
const InternedString* InternString(std::string text);

// Immutable scalar cell. Comparison across different types is defined (by
// type tag first) so Values can key ordered containers, but predicates only
// ever compare same-typed values (schemas are type-checked).
class Value {
 public:
  Value() : type_(ValueType::kInt), int_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt), int_(v) {}
  explicit Value(int v) : type_(ValueType::kInt), int_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), double_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), string_(InternString(std::move(v))) {}
  explicit Value(const char* v) : Value(std::string(v)) {}

  ValueType type() const { return type_; }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Total order: type tag first, then value. Equality requires same type.
  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case ValueType::kInt:
        return int_ == other.int_;
      case ValueType::kDouble:
        return double_ == other.double_;
      case ValueType::kString:
        // Interning is canonical: one buffer per distinct text.
        return string_ == other.string_;
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const {
    if (type_ != other.type_) return type_ < other.type_;
    switch (type_) {
      case ValueType::kInt:
        return int_ < other.int_;
      case ValueType::kDouble:
        return double_ < other.double_;
      case ValueType::kString:
        return string_ != other.string_ &&
               string_->text < other.string_->text;
    }
    return false;
  }

  size_t Hash() const {
    size_t h = 0;
    switch (type_) {
      case ValueType::kInt:
        h = std::hash<int64_t>{}(int_);
        break;
      case ValueType::kDouble:
        h = std::hash<double>{}(double_);
        break;
      case ValueType::kString:
        h = string_->hash;
        break;
    }
    // Boost-style hash combine to mix the type tag in.
    size_t seed = static_cast<size_t>(type_);
    return h ^ (seed + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }

  // Renders the value for display ("7", "3.5", "\"abc\"").
  std::string ToDisplayString() const;

 private:
  ValueType type_;
  union {
    int64_t int_;
    double double_;
    const InternedString* string_;
  };
};

static_assert(std::is_trivially_copyable_v<Value> && sizeof(Value) == 16);

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_VALUE_H_
