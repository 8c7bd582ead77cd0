#include "relational/predicate.h"

#include "common/check.h"

namespace sweepmv {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

Operand Operand::Attr(int position) {
  SWEEP_CHECK(position >= 0);
  Operand o;
  o.is_attr_ = true;
  o.attr_ = position;
  return o;
}

Operand Operand::Const(Value v) {
  Operand o;
  o.is_attr_ = false;
  o.constant_ = std::move(v);
  return o;
}

const Value& Operand::Resolve(TupleRef t) const {
  if (is_attr_) return t.at(static_cast<size_t>(attr_));
  return constant_;
}

std::string Operand::ToDisplayString() const {
  if (is_attr_) return "$" + std::to_string(attr_);
  return constant_.ToDisplayString();
}

struct Predicate::Node {
  enum class Kind { kTrue, kCompare, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  // kCompare:
  Operand lhs = Operand::Const(Value(int64_t{0}));
  CmpOp op = CmpOp::kEq;
  Operand rhs = Operand::Const(Value(int64_t{0}));
  // kAnd / kOr / kNot:
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;

  bool Eval(TupleRef t) const {
    switch (kind) {
      case Kind::kTrue:
        return true;
      case Kind::kCompare: {
        const Value& a = lhs.Resolve(t);
        const Value& b = rhs.Resolve(t);
        switch (op) {
          case CmpOp::kEq:
            return a == b;
          case CmpOp::kNe:
            return a != b;
          case CmpOp::kLt:
            return a < b;
          case CmpOp::kLe:
            return !(b < a);
          case CmpOp::kGt:
            return b < a;
          case CmpOp::kGe:
            return !(a < b);
        }
        return false;
      }
      case Kind::kAnd:
        return left->Eval(t) && right->Eval(t);
      case Kind::kOr:
        return left->Eval(t) || right->Eval(t);
      case Kind::kNot:
        return !left->Eval(t);
    }
    return false;
  }

  std::string ToDisplayString() const {
    switch (kind) {
      case Kind::kTrue:
        return "true";
      case Kind::kCompare:
        return lhs.ToDisplayString() + " " + CmpOpName(op) + " " +
               rhs.ToDisplayString();
      case Kind::kAnd:
        return "(" + left->ToDisplayString() + " AND " +
               right->ToDisplayString() + ")";
      case Kind::kOr:
        return "(" + left->ToDisplayString() + " OR " +
               right->ToDisplayString() + ")";
      case Kind::kNot:
        return "NOT (" + left->ToDisplayString() + ")";
    }
    return "?";
  }
};

const std::shared_ptr<const Predicate::Node>& Predicate::TrueNode() {
  static const auto& node = *new std::shared_ptr<const Predicate::Node>(
      std::make_shared<Predicate::Node>());
  return node;
}

Predicate::Predicate() : node_(TrueNode()) {}

Predicate Predicate::True() { return Predicate(TrueNode()); }

Predicate Predicate::Compare(Operand lhs, CmpOp op, Operand rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCompare;
  node->lhs = std::move(lhs);
  node->op = op;
  node->rhs = std::move(rhs);
  return Predicate(std::move(node));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  if (a.IsTrueLiteral()) return b;
  if (b.IsTrueLiteral()) return a;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kAnd;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kOr;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Not(Predicate p) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNot;
  node->left = std::move(p.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::AttrEqAttr(int a, int b) {
  return Compare(Operand::Attr(a), CmpOp::kEq, Operand::Attr(b));
}

Predicate Predicate::AttrCmpConst(int a, CmpOp op, Value v) {
  return Compare(Operand::Attr(a), op, Operand::Const(std::move(v)));
}

bool Predicate::Eval(TupleRef t) const { return node_->Eval(t); }

bool Predicate::IsTrueLiteral() const {
  return node_->kind == Node::Kind::kTrue;
}

std::string Predicate::ToDisplayString() const {
  return node_->ToDisplayString();
}

}  // namespace sweepmv
