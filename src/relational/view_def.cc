#include "relational/view_def.h"

#include <numeric>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

const Schema& ViewDef::rel_schema(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations());
  return schemas_[static_cast<size_t>(rel)];
}

const std::string& ViewDef::rel_name(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations());
  return names_[static_cast<size_t>(rel)];
}

int ViewDef::attr_offset(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations());
  return offsets_[static_cast<size_t>(rel)];
}

const std::vector<std::pair<int, int>>& ViewDef::chain_keys(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations() - 1);
  return chain_keys_[static_cast<size_t>(rel)];
}

std::vector<std::pair<int, int>> ViewDef::ExtendLeftKeys(int rel) const {
  // Partial spans [rel+1, hi]; relation rel joins on its chain condition
  // with rel+1, whose attributes sit at offset 0 of the partial.
  return chain_keys(rel);
}

std::vector<std::pair<int, int>> ViewDef::ExtendRightKeys(int lo,
                                                          int rel) const {
  // Partial spans [lo, rel-1]; relation rel joins with rel-1, whose
  // attributes start at offset(rel-1) - offset(lo) within the partial.
  SWEEP_CHECK(rel >= 1 && rel < num_relations());
  SWEEP_CHECK(lo >= 0 && lo <= rel - 1);
  int base = attr_offset(rel - 1) - attr_offset(lo);
  std::vector<std::pair<int, int>> keys;
  for (const auto& [a, b] : chain_keys(rel - 1)) {
    keys.emplace_back(base + a, b);
  }
  return keys;
}

const JoinKeys& ViewDef::LeftExtension(int rel) const {
  SWEEP_CHECK(rel >= 0 && rel < num_relations() - 1);
  return spans_->left[static_cast<size_t>(rel)];
}

const JoinKeys& ViewDef::RightExtension(int lo, int rel) const {
  SWEEP_CHECK(rel >= 1 && rel < num_relations());
  SWEEP_CHECK(lo >= 0 && lo <= rel - 1);
  return spans_->right[static_cast<size_t>(lo * num_relations() + rel)];
}

const Schema& ViewDef::span_schema(int lo, int hi) const {
  SWEEP_CHECK(lo >= 0 && hi < num_relations() && lo <= hi);
  return spans_->schemas[static_cast<size_t>(lo * num_relations() + hi)];
}

std::vector<int> ViewDef::RelPositionsInJoined(int rel) const {
  return RelPositionsInSpan(0, num_relations() - 1, rel);
}

std::vector<int> ViewDef::RelPositionsInSpan(int lo, int hi, int rel) const {
  SWEEP_CHECK(lo >= 0 && hi < num_relations() && lo <= hi);
  SWEEP_CHECK(rel >= lo && rel <= hi);
  int base = attr_offset(rel) - attr_offset(lo);
  std::vector<int> positions(rel_schema(rel).arity());
  std::iota(positions.begin(), positions.end(), base);
  return positions;
}

Relation ViewDef::EvaluateFull(
    const std::vector<const Relation*>& rels) const {
  SWEEP_CHECK(static_cast<int>(rels.size()) == num_relations());
  Relation acc = *rels[0];
  for (int rel = 1; rel < num_relations(); ++rel) {
    acc = Join(acc, *rels[static_cast<size_t>(rel)], ExtendRightKeys(0, rel));
  }
  return FinishFullSpan(std::move(acc));
}

Relation ViewDef::FinishFullSpan(Relation full_span) const {
  SWEEP_CHECK_MSG(
      full_span.schema().arity() == joined_schema_.arity(),
      "FinishFullSpan requires a delta spanning every relation");
  const bool select = !selection_.IsTrueLiteral();
  if (identity_projection_) {
    return select ? sweepmv::Select(full_span, selection_) : full_span;
  }
  // The rows matched full_span's schema on entry; with its types the
  // joined ones, the projected cells have the view schema's types.
  SWEEP_CHECK_MSG(full_span.Empty() ||
                      full_span.schema().SameTypes(joined_schema_),
                  "tuple does not match relation schema");
  Relation out(view_schema_);
  for (const auto& [t, c] : full_span.entries()) {
    if (!select || selection_.Eval(t)) out.AddProjection(t, projection_, c);
  }
  return out;
}

std::string ViewDef::ToDisplayString() const {
  std::vector<std::string> rels;
  for (int i = 0; i < num_relations(); ++i) {
    rels.push_back(names_[static_cast<size_t>(i)] +
                   schemas_[static_cast<size_t>(i)].ToDisplayString());
  }
  std::string out = Join(rels, " |><| ");
  if (!selection_.IsTrueLiteral()) {
    out += " WHERE " + selection_.ToDisplayString();
  }
  return out;
}

ViewDef::Builder& ViewDef::Builder::AddRelation(std::string name,
                                                Schema schema) {
  SWEEP_CHECK(!built_);
  view_.names_.push_back(std::move(name));
  view_.schemas_.push_back(std::move(schema));
  if (view_.schemas_.size() > 1) {
    view_.chain_keys_.emplace_back();
  }
  return *this;
}

ViewDef::Builder& ViewDef::Builder::JoinOn(int left_rel, int left_attr,
                                           int right_attr) {
  SWEEP_CHECK(!built_);
  SWEEP_CHECK_MSG(
      left_rel >= 0 &&
          static_cast<size_t>(left_rel) + 1 < view_.schemas_.size(),
      "JoinOn links a relation with its right neighbour; add both first");
  const Schema& ls = view_.schemas_[static_cast<size_t>(left_rel)];
  const Schema& rs = view_.schemas_[static_cast<size_t>(left_rel) + 1];
  SWEEP_CHECK(left_attr >= 0 &&
              static_cast<size_t>(left_attr) < ls.arity());
  SWEEP_CHECK(right_attr >= 0 &&
              static_cast<size_t>(right_attr) < rs.arity());
  SWEEP_CHECK_MSG(ls.attr(static_cast<size_t>(left_attr)).type ==
                      rs.attr(static_cast<size_t>(right_attr)).type,
                  "join attributes must have the same type");
  view_.chain_keys_[static_cast<size_t>(left_rel)].emplace_back(left_attr,
                                                                right_attr);
  return *this;
}

ViewDef::Builder& ViewDef::Builder::Select(Predicate pred) {
  SWEEP_CHECK(!built_);
  view_.selection_ = std::move(pred);
  return *this;
}

ViewDef::Builder& ViewDef::Builder::Project(std::vector<int> positions) {
  SWEEP_CHECK(!built_);
  view_.projection_ = std::move(positions);
  return *this;
}

ViewDef ViewDef::Builder::Build() {
  SWEEP_CHECK(!built_);
  built_ = true;
  SWEEP_CHECK_MSG(!view_.schemas_.empty(),
                  "a view needs at least one relation");

  view_.offsets_.clear();
  std::vector<Attribute> joined;
  for (const Schema& s : view_.schemas_) {
    view_.offsets_.push_back(static_cast<int>(joined.size()));
    joined.insert(joined.end(), s.attrs().begin(), s.attrs().end());
  }
  view_.offsets_.push_back(static_cast<int>(joined.size()));
  view_.joined_schema_ = Schema(std::move(joined));

  // Every span's schema is a slice of the joined one. Extending a span
  // [lo, rel-1] to the right joins relation rel on its link with rel-1,
  // whose attributes start at offset(rel-1) - offset(lo) in the span;
  // extending [rel+1, hi] to the left joins rel on its link with rel+1,
  // whose attributes start the span.
  const auto n = static_cast<size_t>(view_.num_relations());
  auto spans = std::make_shared<Spans>();
  spans->schemas.resize(n * n);
  spans->right.resize(n * n);
  spans->left.resize(n);
  for (size_t lo = 0; lo < n; ++lo) {
    const int begin = view_.offsets_[lo];
    for (size_t hi = lo; hi < n; ++hi) {
      spans->schemas[lo * n + hi] = view_.joined_schema_.Slice(
          static_cast<size_t>(begin),
          static_cast<size_t>(view_.offsets_[hi + 1] - begin));
      if (hi + 1 == n) continue;
      JoinKeys& right = spans->right[lo * n + hi + 1];
      for (const auto& [a, b] : view_.chain_keys_[hi]) {
        right.left.push_back(view_.offsets_[hi] - begin + a);
        right.right.push_back(b);
      }
    }
    if (lo + 1 < n) spans->left[lo] = JoinKeys::FromPairs(view_.chain_keys_[lo]);
  }
  view_.spans_ = std::move(spans);

  std::vector<int> identity(view_.joined_schema_.arity());
  std::iota(identity.begin(), identity.end(), 0);
  if (view_.projection_.empty()) view_.projection_ = identity;
  for (int pos : view_.projection_) {
    SWEEP_CHECK_MSG(pos >= 0 && static_cast<size_t>(pos) <
                                    view_.joined_schema_.arity(),
                    "projection position outside the joined schema");
  }
  view_.identity_projection_ = view_.projection_ == identity;
  std::vector<Attribute> view_attrs;
  for (int pos : view_.projection_) {
    view_attrs.push_back(view_.joined_schema_.attr(static_cast<size_t>(pos)));
  }
  view_.view_schema_ = Schema(std::move(view_attrs));
  return std::move(view_);
}

}  // namespace sweepmv
