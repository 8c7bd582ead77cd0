#include "relational/schema.h"

#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

Schema Schema::AllInts(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const std::string& n : names) {
    attrs.push_back(Attribute{n, ValueType::kInt});
  }
  return Schema(std::move(attrs));
}

const Attribute& Schema::attr(size_t i) const {
  SWEEP_CHECK_MSG(i < attrs_.size(), "schema index out of range");
  return attrs_[i];
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Attribute> attrs = attrs_;
  attrs.insert(attrs.end(), other.attrs_.begin(), other.attrs_.end());
  return Schema(std::move(attrs));
}

bool Schema::Matches(const Tuple& t) const {
  if (t.arity() != attrs_.size()) return false;
  const std::vector<Value>& values = t.values();
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (values[i].type() != attrs_[i].type) return false;
  }
  return true;
}

std::string Schema::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(attrs_.size());
  for (const Attribute& a : attrs_) {
    parts.push_back(a.name + ":" + ValueTypeName(a.type));
  }
  return "[" + Join(parts, ", ") + "]";
}

std::ostream& operator<<(std::ostream& os, const Schema& s) {
  return os << s.ToDisplayString();
}

}  // namespace sweepmv
