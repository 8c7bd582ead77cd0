// Index-aware join entry points for sweep query answering.
//
// These mirror ExtendLeft/ExtendRight (relational/partial_delta.h) but
// treat the base relation as the *indexed* side and the partial delta as
// the *probe* side: for each delta entry, project its key, probe the
// maintained index, and emit one output tuple per bucket match. Cost is
// O(|Δ| · matches) instead of the scan join's O(|R| + |Δ| · matches)
// per query — the difference SWEEP's per-update query pattern feels on
// every hop (bench/sweepbench times this path as source.query_frac).
//
// Results are bit-identical to the scan path (the equivalence property
// test proves it end to end): both compute the same counted bag, only
// the iteration strategy differs. When the needed index is missing or
// the link is a cross product, these fall back to the plain operators
// and count a scan_fallback.

#ifndef SWEEPMV_STORAGE_INDEXED_OPS_H_
#define SWEEPMV_STORAGE_INDEXED_OPS_H_

#include "relational/partial_delta.h"
#include "relational/view_def.h"
#include "storage/indexed_relation.h"

namespace sweepmv {

// Index-aware ExtendLeft: joins base relation `left` (indexed on the
// catalog's left-probe key) to the left of `pd`. `stats` (required)
// accumulates probe/match/fallback counters.
PartialDelta ExtendLeftIndexed(const ViewDef& view,
                               const IndexedRelation& left,
                               const PartialDelta& pd, StorageStats* stats);

// Index-aware ExtendRight: joins base relation `right` (indexed on the
// catalog's right-probe key) to the right of `pd`.
PartialDelta ExtendRightIndexed(const ViewDef& view, const PartialDelta& pd,
                                const IndexedRelation& right,
                                StorageStats* stats);

}  // namespace sweepmv

#endif  // SWEEPMV_STORAGE_INDEXED_OPS_H_
