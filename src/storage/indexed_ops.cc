#include "storage/indexed_ops.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace sweepmv {

namespace {

// An answer row is a base row and a partial row side by side, and both
// matched their relation's schema on entry. So one check per query that
// those schemas carry the view's types covers every appended row, and
// keeps every probe inside its row.
void CheckInputs(const ViewDef& view, const Relation& base, int rel,
                 const PartialDelta& pd) {
  SWEEP_CHECK_MSG(
      base.schema().SameTypes(view.rel_schema(rel)) &&
          (pd.rel.Empty() ||
           pd.rel.schema().SameTypes(view.span_schema(pd.lo, pd.hi))),
      "tuple does not match relation schema");
}

}  // namespace

PartialDelta ExtendLeftIndexed(const ViewDef& view,
                               const IndexedRelation& left,
                               const PartialDelta& pd, StorageStats* stats) {
  SWEEP_CHECK(stats != nullptr);
  SWEEP_CHECK_MSG(pd.lo >= 1, "no relation to the left of the span");
  const int rel_index = pd.lo - 1;
  const JoinKeys& keys = view.LeftExtension(rel_index);
  const HashIndex* index =
      keys.left.empty() ? nullptr : left.FindIndex(keys.left);
  if (index == nullptr) {
    ++stats->scan_fallbacks;
    return ExtendLeft(view, left.relation(), pd);
  }

  PartialDelta out;
  out.lo = rel_index;
  out.hi = pd.hi;
  out.rel = Relation(view.span_schema(out.lo, out.hi));
  CheckInputs(view, left.relation(), rel_index, pd);
  const Relation& base = left.relation();
  for (const auto& [pt, pc] : pd.rel.entries()) {
    ++stats->index_probes;
    const HashIndex::Bucket* bucket = index->Probe(pt, keys.right);
    if (bucket == nullptr) continue;
    for (uint32_t row : *bucket) {
      out.rel.AddConcat(base.row(row), pt, base.count(row) * pc);
      ++stats->index_matches;
    }
  }
  return out;
}

PartialDelta ExtendRightIndexed(const ViewDef& view, const PartialDelta& pd,
                                const IndexedRelation& right,
                                StorageStats* stats) {
  SWEEP_CHECK(stats != nullptr);
  SWEEP_CHECK_MSG(pd.hi + 1 < view.num_relations(),
                  "no relation to the right of the span");
  const int rel_index = pd.hi + 1;
  const JoinKeys& keys = view.RightExtension(pd.lo, rel_index);
  const HashIndex* index =
      keys.right.empty() ? nullptr : right.FindIndex(keys.right);
  if (index == nullptr) {
    ++stats->scan_fallbacks;
    return ExtendRight(view, pd, right.relation());
  }

  PartialDelta out;
  out.lo = pd.lo;
  out.hi = rel_index;
  out.rel = Relation(view.span_schema(out.lo, out.hi));
  CheckInputs(view, right.relation(), rel_index, pd);
  const Relation& base = right.relation();
  for (const auto& [pt, pc] : pd.rel.entries()) {
    ++stats->index_probes;
    const HashIndex::Bucket* bucket = index->Probe(pt, keys.left);
    if (bucket == nullptr) continue;
    for (uint32_t row : *bucket) {
      out.rel.AddConcat(pt, base.row(row), pc * base.count(row));
      ++stats->index_matches;
    }
  }
  return out;
}

}  // namespace sweepmv
