// Partially evaluated view deltas.
//
// During a sweep (Figure 2 of the paper) the warehouse holds a delta that
// spans a contiguous range [lo, hi] of the view's relation chain: it began
// as ΔRi (span [i, i]) and grows one relation at a time as sources answer
// incremental queries. PartialDelta bundles the span with the counted
// relation holding the partial result; its schema is always the
// concatenation of the relation schemas lo..hi.

#ifndef SWEEPMV_RELATIONAL_PARTIAL_DELTA_H_
#define SWEEPMV_RELATIONAL_PARTIAL_DELTA_H_

#include <string>

#include "relational/relation.h"
#include "relational/view_def.h"

namespace sweepmv {

struct PartialDelta {
  int lo = 0;
  int hi = -1;
  Relation rel;

  // Wraps a base-relation delta of relation `rel_index` as a single-span
  // partial.
  static PartialDelta ForRelation(const ViewDef& view, int rel_index,
                                  Relation delta);

  bool SpansAll(const ViewDef& view) const {
    return lo == 0 && hi == view.num_relations() - 1;
  }

  std::string ToDisplayString() const;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("lo", self.lo);
    v.Protocol("hi", self.hi);
    v.Protocol("rel", self.rel);
  }
};

// Joins `left_rel` (base relation or delta of relation pd.lo - 1) to the
// left of the partial, widening the span by one.
PartialDelta ExtendLeft(const ViewDef& view, const Relation& left_rel,
                        const PartialDelta& pd);

// Joins `right_rel` (base relation or delta of relation pd.hi + 1) to the
// right of the partial, widening the span by one.
PartialDelta ExtendRight(const ViewDef& view, const PartialDelta& pd,
                         const Relation& right_rel);

// Merges the results of the two *parallel* directional sweeps of
// Section 5.3's first optimization: `left` spans [0, rel] and was seeded
// with the true update delta (carrying its counts); `right` spans
// [rel, n-1] and was seeded with the same tuples at unit count (so counts
// are not squared). The sweeps rendezvous on relation `rel`'s columns:
//
//   ΔV = ΔV_left ⋈ ΔV_right      (joined on all of R_rel's attributes)
//
// Returns the full-span delta with R_rel's columns appearing once.
PartialDelta MergeParallelSweeps(const ViewDef& view, int rel,
                                 const PartialDelta& left,
                                 const PartialDelta& right);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_PARTIAL_DELTA_H_
