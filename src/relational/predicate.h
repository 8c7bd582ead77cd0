// Selection predicates over tuples of a known schema.
//
// Predicates are immutable expression trees with value semantics (copying
// shares subtrees). They cover the SelectCond of the paper's SPJ view
// definition: comparisons between attributes and/or constants combined
// with AND / OR / NOT.

#ifndef SWEEPMV_RELATIONAL_PREDICATE_H_
#define SWEEPMV_RELATIONAL_PREDICATE_H_

#include <memory>
#include <string>

#include "relational/tuple.h"
#include "relational/value.h"

namespace sweepmv {

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

// A comparison operand: either an attribute position or a constant.
class Operand {
 public:
  static Operand Attr(int position);
  static Operand Const(Value v);

  bool is_attr() const { return is_attr_; }
  int attr() const { return attr_; }
  const Value& constant() const { return constant_; }

  // Resolves the operand against a tuple.
  const Value& Resolve(TupleRef t) const;

  std::string ToDisplayString() const;

 private:
  Operand() = default;

  bool is_attr_ = false;
  int attr_ = -1;
  Value constant_;
};

// Immutable predicate tree.
class Predicate {
 public:
  // The always-true predicate (an SPJ view with no selection).
  Predicate();

  static Predicate True();
  static Predicate Compare(Operand lhs, CmpOp op, Operand rhs);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate p);

  // Convenience builders.
  static Predicate AttrEqAttr(int a, int b);
  static Predicate AttrCmpConst(int a, CmpOp op, Value v);

  // Evaluates the predicate on a tuple. Comparisons between values of
  // different types evaluate to false for kEq (true for kNe) and use the
  // type-tag order for inequalities; schemas are normally type-checked
  // upstream so this is a safety net, not a feature.
  bool Eval(TupleRef t) const;

  bool IsTrueLiteral() const;

  std::string ToDisplayString() const;

 private:
  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  // Shared singleton node for the always-true predicate.
  static const std::shared_ptr<const Node>& TrueNode();

  std::shared_ptr<const Node> node_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_PREDICATE_H_
