#include "shard/routing.h"

#include <algorithm>

#include "common/check.h"

namespace sweepmv {

std::vector<int> JoinKeyPositions(const ViewDef& view, int rel) {
  SWEEP_CHECK(rel >= 0 && rel < view.num_relations());
  std::vector<int> positions;
  if (rel > 0) {
    for (const auto& [left, right] : view.chain_keys(rel - 1)) {
      (void)left;
      positions.push_back(right);
    }
  }
  if (rel + 1 < view.num_relations()) {
    for (const auto& [left, right] : view.chain_keys(rel)) {
      (void)right;
      positions.push_back(left);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

uint64_t RoutingHashTuple(const std::vector<int>& key_positions,
                          TupleRef tuple) {
  // FNV-style combine over the selected values (mirrors
  // Tuple::ComputeHash) without materializing the projection.
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t vh) {
    h ^= vh + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  if (key_positions.empty()) {
    for (size_t i = 0; i < tuple.arity(); ++i) {
      mix(static_cast<uint64_t>(tuple.at(i).Hash()));
    }
  } else {
    for (int pos : key_positions) {
      mix(static_cast<uint64_t>(
          tuple.at(static_cast<size_t>(pos)).Hash()));
    }
  }
  // splitmix64 finalizer: the low bits must be good, shard index is h
  // mod a small count.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

uint64_t RoutingHash(const ViewDef& view, const Update& update) {
  SWEEP_CHECK(update.relation >= 0 &&
              update.relation < view.num_relations());
  const std::vector<int> keys = JoinKeyPositions(view, update.relation);
  uint64_t best = ~uint64_t{0};
  // sweeplint:allow determinism-taint min-reduce over per-tuple hashes
  // is order-independent, so the unordered walk cannot change the result
  for (const auto& [tuple, count] : update.delta.entries()) {
    (void)count;
    best = std::min(best, RoutingHashTuple(keys, tuple));
  }
  return best;
}

int OwnerShard(const ViewDef& view, const Update& update, int num_shards) {
  SWEEP_CHECK(num_shards >= 1);
  return static_cast<int>(RoutingHash(view, update) %
                          static_cast<uint64_t>(num_shards));
}

}  // namespace sweepmv
