#include "relational/operators.h"

#include <unordered_map>

#include "common/check.h"

namespace sweepmv {

Relation Select(const Relation& r, const Predicate& pred) {
  Relation out(r.schema());
  for (const auto& [t, c] : r.entries()) {
    if (pred.Eval(t)) out.Add(t, c);
  }
  return out;
}

Relation Project(const Relation& r, const std::vector<int>& positions) {
  std::vector<Attribute> attrs;
  attrs.reserve(positions.size());
  for (int pos : positions) {
    attrs.push_back(r.schema().attr(static_cast<size_t>(pos)));
  }
  Relation out{Schema(std::move(attrs))};
  for (const auto& [t, c] : r.entries()) {
    out.Add(t.Project(positions), c);
  }
  return out;
}

Relation Join(const Relation& left, const Relation& right,
              const std::vector<std::pair<int, int>>& keys) {
  Relation out(left.schema().Concat(right.schema()));

  std::vector<int> left_key_pos;
  std::vector<int> right_key_pos;
  left_key_pos.reserve(keys.size());
  right_key_pos.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    SWEEP_CHECK(l >= 0 && static_cast<size_t>(l) < left.schema().arity());
    SWEEP_CHECK(r >= 0 && static_cast<size_t>(r) < right.schema().arity());
    left_key_pos.push_back(l);
    right_key_pos.push_back(r);
  }

  if (keys.empty()) {
    for (const auto& [lt, lc] : left.entries()) {
      for (const auto& [rt, rc] : right.entries()) {
        out.Add(lt.Concat(rt), lc * rc);
      }
    }
    return out;
  }

  // Hash the smaller input on its key columns and probe with the other
  // (SWEEP's compensation joins a one- or two-tuple ΔR_j against the whole
  // TempView). Output tuples are left ++ right either way.
  const bool build_left = left.DistinctSize() < right.DistinctSize();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<int>& build_key_pos =
      build_left ? left_key_pos : right_key_pos;
  const std::vector<int>& probe_key_pos =
      build_left ? right_key_pos : left_key_pos;

  std::unordered_map<Tuple, std::vector<const std::pair<const Tuple, int64_t>*>,
                     TupleHash>
      index;
  index.reserve(build.entries().size());
  for (const auto& entry : build.entries()) {
    index[entry.first.Project(build_key_pos)].push_back(&entry);
  }

  for (const auto& [pt, pc] : probe.entries()) {
    auto it = index.find(pt.Project(probe_key_pos));
    if (it == index.end()) continue;
    for (const auto* entry : it->second) {
      if (build_left) {
        out.Add(entry->first.Concat(pt), entry->second * pc);
      } else {
        out.Add(pt.Concat(entry->first), pc * entry->second);
      }
    }
  }
  return out;
}

Relation Union(const Relation& left, const Relation& right) {
  Relation out = left;
  out.Merge(right);
  return out;
}

Relation Subtract(const Relation& left, const Relation& right) {
  Relation out = left;
  out.MergeNegated(right);
  return out;
}

}  // namespace sweepmv
