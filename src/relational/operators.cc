#include "relational/operators.h"

#include "common/check.h"
#include "relational/slot_table.h"

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
  // The output's types are the projected ones by construction.
  Relation out{Schema(std::move(attrs))};
  for (const auto& [t, c] : r.entries()) out.AddProjection(t, positions, c);
  return out;
}

JoinKeys JoinKeys::FromPairs(const std::vector<std::pair<int, int>>& pairs) {
  JoinKeys keys;
  keys.left.reserve(pairs.size());
  keys.right.reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    keys.left.push_back(l);
    keys.right.push_back(r);
  }
  return keys;
}

Relation Join(const Relation& left, const Relation& right,
              const std::vector<std::pair<int, int>>& keys) {
  return Join(left, right, JoinKeys::FromPairs(keys),
              left.schema().Concat(right.schema()));
}

Relation Join(const Relation& left, const Relation& right,
              const JoinKeys& keys, Schema out_schema) {
  SWEEP_CHECK(keys.left.size() == keys.right.size());
  for (size_t i = 0; i < keys.left.size(); ++i) {
    const int l = keys.left[i];
    const int r = keys.right[i];
    SWEEP_CHECK(l >= 0 && static_cast<size_t>(l) < left.schema().arity());
    SWEEP_CHECK(r >= 0 && static_cast<size_t>(r) < right.schema().arity());
  }
  Relation out(std::move(out_schema));
  // Typed inputs checked every row on entry, so one check that the output
  // types are left's ++ right's covers every output row. An arity-0 input
  // checked nothing, so its products are checked one by one.
  const bool typed = left.schema().arity() != 0 && right.schema().arity() != 0;
  SWEEP_CHECK_MSG(!typed || left.Empty() || right.Empty() ||
                      out.schema().IsConcatOf(left.schema(), right.schema()),
                  "join output schema is not left ++ right");
  auto emit = [&](TupleRef l, TupleRef r, int64_t count) {
    if (typed) {
      out.AddConcat(l, r, count);
    } else {
      out.Add(Tuple(l).Concat(r), count);
    }
  };

  if (keys.left.empty()) {
    for (const auto& [lt, lc] : left.entries()) {
      for (const auto& [rt, rc] : right.entries()) emit(lt, rt, lc * rc);
    }
    return out;
  }

  // Hash the smaller input on its key columns and probe with the other
  // (SWEEP's compensation joins a one- or two-tuple ΔR_j against the whole
  // TempView). Output tuples are left ++ right either way.
  const bool build_left = left.DistinctSize() < right.DistinctSize();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<int>& build_keys = build_left ? keys.left : keys.right;
  const std::vector<int>& probe_keys = build_left ? keys.right : keys.left;

  // Build rows grouped by key: a group is a chain through `next` from its
  // head row, and the slot table finds a group by its key hash.
  const auto build_rows = static_cast<uint32_t>(build.DistinctSize());
  SlotTable groups;
  groups.Reserve(build_rows);
  std::vector<uint32_t> head;
  std::vector<size_t> group_hash;
  std::vector<uint32_t> next(build_rows);
  auto same_key = [&](uint32_t g, size_t hash, TupleRef t,
                      const std::vector<int>& positions) {
    return group_hash[g] == hash &&
           build.row(head[g]).SameAt(build_keys, t, positions);
  };
  for (uint32_t r = 0; r < build_rows; ++r) {
    const TupleRef t = build.row(r);
    const size_t hash = t.ProjectionHash(build_keys);
    const auto fresh = static_cast<uint32_t>(head.size());
    const uint32_t g = groups.FindOrInsert(hash, fresh, [&](uint32_t id) {
      return same_key(id, hash, t, build_keys);
    });
    if (g == fresh) {
      head.push_back(r);
      group_hash.push_back(hash);
      next[r] = SlotTable::kNone;
    } else {
      next[r] = head[g];
      head[g] = r;
    }
  }

  for (const auto& [pt, pc] : probe.entries()) {
    const size_t hash = pt.ProjectionHash(probe_keys);
    const uint32_t g = groups.Find(hash, [&](uint32_t id) {
      return same_key(id, hash, pt, probe_keys);
    });
    if (g == SlotTable::kNone) continue;
    for (uint32_t r = head[g]; r != SlotTable::kNone; r = next[r]) {
      if (build_left) {
        emit(build.row(r), pt, build.count(r) * pc);
      } else {
        emit(pt, build.row(r), pc * build.count(r));
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
