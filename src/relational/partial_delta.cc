#include "relational/partial_delta.h"

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

PartialDelta PartialDelta::ForRelation(const ViewDef& view, int rel_index,
                                       Relation delta) {
  SWEEP_CHECK(rel_index >= 0 && rel_index < view.num_relations());
  SWEEP_CHECK_MSG(delta.schema().arity() ==
                      view.rel_schema(rel_index).arity(),
                  "delta schema does not match the relation");
  PartialDelta pd;
  pd.lo = rel_index;
  pd.hi = rel_index;
  pd.rel = std::move(delta);
  return pd;
}

std::string PartialDelta::ToDisplayString() const {
  return StrFormat("span[%d,%d] ", lo, hi) + rel.ToDisplayString();
}

PartialDelta ExtendLeft(const ViewDef& view, const Relation& left_rel,
                        const PartialDelta& pd) {
  SWEEP_CHECK_MSG(pd.lo >= 1, "no relation to the left of the span");
  int rel_index = pd.lo - 1;
  PartialDelta out;
  out.lo = rel_index;
  out.hi = pd.hi;
  out.rel = Join(left_rel, pd.rel, view.LeftExtension(rel_index),
                 view.span_schema(out.lo, out.hi));
  return out;
}

PartialDelta ExtendRight(const ViewDef& view, const PartialDelta& pd,
                         const Relation& right_rel) {
  SWEEP_CHECK_MSG(pd.hi + 1 < view.num_relations(),
                  "no relation to the right of the span");
  int rel_index = pd.hi + 1;
  PartialDelta out;
  out.lo = pd.lo;
  out.hi = rel_index;
  out.rel = Join(pd.rel, right_rel, view.RightExtension(pd.lo, rel_index),
                 view.span_schema(out.lo, out.hi));
  return out;
}

PartialDelta MergeParallelSweeps(const ViewDef& view, int rel,
                                 const PartialDelta& left,
                                 const PartialDelta& right) {
  SWEEP_CHECK(left.lo == 0 && left.hi == rel);
  SWEEP_CHECK(right.lo == rel && right.hi == view.num_relations() - 1);

  const int rel_arity = static_cast<int>(view.rel_schema(rel).arity());
  const int left_offset = view.attr_offset(rel);  // within span [0, rel]

  // Rendezvous keys: every attribute of R_rel, matched positionally.
  std::vector<std::pair<int, int>> keys;
  keys.reserve(static_cast<size_t>(rel_arity));
  for (int a = 0; a < rel_arity; ++a) {
    keys.emplace_back(left_offset + a, a);
  }
  Relation joined = Join(left.rel, right.rel, keys);

  // Drop the duplicated R_rel block contributed by the right side.
  const int left_arity = static_cast<int>(left.rel.schema().arity());
  const int right_arity = static_cast<int>(right.rel.schema().arity());
  std::vector<int> positions;
  positions.reserve(static_cast<size_t>(left_arity + right_arity -
                                        rel_arity));
  for (int p = 0; p < left_arity; ++p) positions.push_back(p);
  for (int p = rel_arity; p < right_arity; ++p) {
    positions.push_back(left_arity + p);
  }

  PartialDelta out;
  out.lo = 0;
  out.hi = view.num_relations() - 1;
  out.rel = Project(joined, positions);
  return out;
}

}  // namespace sweepmv
