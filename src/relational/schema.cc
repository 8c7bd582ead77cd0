#include "relational/schema.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

Schema::Schema(std::vector<Attribute> attrs)
    : size_(static_cast<uint32_t>(attrs.size())) {
  if (!attrs.empty()) {
    list_ = std::make_shared<const std::vector<Attribute>>(std::move(attrs));
  }
}

Schema Schema::AllInts(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const std::string& n : names) {
    attrs.push_back(Attribute{n, ValueType::kInt});
  }
  return Schema(std::move(attrs));
}

std::span<const Attribute> Schema::attrs() const {
  if (size_ == 0) return {};
  return {data(), size_};
}

Schema Schema::Slice(size_t begin, size_t size) const {
  SWEEP_CHECK_MSG(begin + size <= size_, "schema slice out of range");
  Schema out;
  if (size == 0) return out;
  out.list_ = list_;
  out.begin_ = begin_ + static_cast<uint32_t>(begin);
  out.size_ = static_cast<uint32_t>(size);
  return out;
}

const Attribute& Schema::attr(size_t i) const {
  SWEEP_CHECK_MSG(i < arity(), "schema index out of range");
  return data()[i];
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < arity(); ++i) {
    if (data()[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Attribute> attrs(this->attrs().begin(), this->attrs().end());
  attrs.insert(attrs.end(), other.attrs().begin(), other.attrs().end());
  return Schema(std::move(attrs));
}

bool Schema::Matches(TupleRef t) const {
  if (t.arity() != arity()) return false;
  for (size_t i = 0; i < t.arity(); ++i) {
    if (t[i].type() != data()[i].type) return false;
  }
  return true;
}

bool Schema::SameTypes(const Schema& other) const {
  if (arity() != other.arity()) return false;
  if (list_ == other.list_ && begin_ == other.begin_) return true;
  for (size_t i = 0; i < arity(); ++i) {
    if (data()[i].type != other.data()[i].type) return false;
  }
  return true;
}

bool Schema::IsConcatOf(const Schema& a, const Schema& b) const {
  if (arity() != a.arity() + b.arity()) return false;
  for (size_t i = 0; i < arity(); ++i) {
    const ValueType want =
        i < a.arity() ? a.attr(i).type : b.attr(i - a.arity()).type;
    if (data()[i].type != want) return false;
  }
  return true;
}

bool Schema::operator==(const Schema& other) const {
  return std::equal(attrs().begin(), attrs().end(), other.attrs().begin(),
                    other.attrs().end());
}

std::string Schema::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(arity());
  for (const Attribute& a : attrs()) {
    parts.push_back(a.name + ":" + ValueTypeName(a.type));
  }
  return "[" + Join(parts, ", ") + "]";
}

std::ostream& operator<<(std::ostream& os, const Schema& s) {
  return os << s.ToDisplayString();
}

}  // namespace sweepmv
