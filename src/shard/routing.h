// Shard routing: which warehouse shard owns an update.
//
// A sharded deployment (docs/sharding.md) splits maintenance of one view
// across several warehouse instances. Ownership is decided per update
// from the join-key projection of its delta: the attributes of the
// updated relation that participate in the view's chain joins. Each
// delta tuple gets its own routing hash; an update's owner is the
// MINIMUM of its tuples' hashes, mod the shard count.
//
// The min-combine is what makes source-side shard-affine batching
// (BatchOptions::route_shards) line up with ownership: a batch
// partitioned so every op tuple hashes to residue s (mod num_shards)
// yields a delta whose tuple hashes all have residue s — and so does
// their minimum. Every shard therefore computes the same owner for the
// update the sub-batch became, without any side channel. For mixed-key
// updates (unbatched multi-op transactions) the min is just one
// deterministic choice among the keys; any would do for exactness.
//
// The min is also order-free, so the hash needs neither a sort nor an
// allocation per evaluation — ownership is re-derived at every shard for
// every queued update, which put the old sorted-entries combine on the
// hot path.
//
// The hash only needs to be deterministic within a run (it never crosses
// a process boundary): it reuses the values' cached FNV hashes.

#ifndef SWEEPMV_SHARD_ROUTING_H_
#define SWEEPMV_SHARD_ROUTING_H_

#include <cstdint>
#include <vector>

#include "relational/view_def.h"
#include "source/update.h"

namespace sweepmv {

// Positions (local to relation `rel`) of the attributes participating in
// the view's chain joins: the right-hand keys linking rel-1 to rel plus
// the left-hand keys linking rel to rel+1, sorted and deduplicated.
// Empty only for a single-relation view (or a pure cross product), in
// which case callers hash the whole tuple.
std::vector<int> JoinKeyPositions(const ViewDef& view, int rel);

// Routing hash of one tuple: FNV over the values at `key_positions`
// (over every value when empty), finalized for avalanche so taking it
// mod a small shard count is well distributed. Allocation-free.
uint64_t RoutingHashTuple(const std::vector<int>& key_positions,
                          TupleRef tuple);

// Routing hash of an update: the minimum of RoutingHashTuple over its
// delta's tuples (~0 for an empty delta, which sources never ship).
uint64_t RoutingHash(const ViewDef& view, const Update& update);

// The shard index in [0, num_shards) owning `update`.
int OwnerShard(const ViewDef& view, const Update& update, int num_shards);

}  // namespace sweepmv

#endif  // SWEEPMV_SHARD_ROUTING_H_
