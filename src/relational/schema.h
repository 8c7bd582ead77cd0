// Relation schemas: named, typed attribute lists.
//
// A schema is immutable and shares its attribute list: copying one (every
// relation, partial delta and message holds one) is a refcount bump, and
// a slice of one (a view's span of relations) shares the list too.

#ifndef SWEEPMV_RELATIONAL_SCHEMA_H_
#define SWEEPMV_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace sweepmv {

struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt;

  bool operator==(const Attribute& other) const {
    return name == other.name && type == other.type;
  }
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attrs);

  // Builds an all-int schema "name[a0,a1,...]" from attribute names; the
  // common case in tests and the paper's examples.
  static Schema AllInts(const std::vector<std::string>& names);

  size_t arity() const { return size_; }
  const Attribute& attr(size_t i) const;
  std::span<const Attribute> attrs() const;

  // Attributes [begin, begin + size) of this schema, sharing its list.
  Schema Slice(size_t begin, size_t size) const;

  // Position of the attribute with the given name, or -1 if absent.
  int IndexOf(const std::string& name) const;

  // Concatenation (for join results). Attribute names are kept as-is;
  // callers that need uniqueness qualify names up front (e.g. "R1.B").
  Schema Concat(const Schema& other) const;

  // True if `t` has matching arity and per-position value types.
  bool Matches(TupleRef t) const;

  // True if `other` has the same arity and per-position value types, so
  // every tuple matching one matches the other. Names are not compared.
  bool SameTypes(const Schema& other) const;

  // True if this schema's types are a's followed by b's, as a.Concat(b)'s
  // would be, without building the concatenation.
  bool IsConcatOf(const Schema& a, const Schema& b) const;

  bool operator==(const Schema& other) const;

  // "[A:int, B:string]"
  std::string ToDisplayString() const;

 private:
  const Attribute* data() const { return list_->data() + begin_; }

  // Null for the arity-0 schema, which then allocates nothing. This
  // schema is list_[begin_, begin_ + size_).
  std::shared_ptr<const std::vector<Attribute>> list_;
  uint32_t begin_ = 0;
  uint32_t size_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Schema& s);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_SCHEMA_H_
