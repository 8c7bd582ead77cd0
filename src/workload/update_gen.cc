#include "workload/update_gen.h"

#include <cmath>
#include <map>

#include "common/check.h"
#include "common/rng.h"

namespace sweepmv {

std::vector<ScheduledTxn> GenerateWorkload(
    const ViewDef& view, const std::vector<Relation>& initial_bases,
    const ChainSpec& chain, const WorkloadSpec& spec) {
  SWEEP_CHECK(static_cast<int>(initial_bases.size()) ==
              view.num_relations());
  SWEEP_CHECK(spec.max_ops_per_txn >= 1);
  SWEEP_CHECK(spec.insert_fraction >= 0.0 && spec.insert_fraction <= 1.0);
  SWEEP_CHECK(spec.key_skew >= 0.0 && spec.key_skew < 1.0);
  SWEEP_CHECK(spec.key_domain >= 1);

  Rng rng(spec.seed);
  // Track what each relation will contain at execution time (events fire
  // in schedule order, so sequential simulation here is faithful).
  std::vector<std::vector<Tuple>> present(initial_bases.size());
  for (size_t r = 0; r < initial_bases.size(); ++r) {
    for (const auto& [t, c] : initial_bases[r].SortedEntries()) {
      for (int64_t i = 0; i < c; ++i) present[r].emplace_back(t);
    }
  }
  int64_t next_key = FirstFreshKey(chain);
  // Hot-key mode: the live tuple of each occupied key slot, per relation.
  // Slots start at FirstFreshKey, above every initial-base key, so
  // uniqueness holds against the initial tuples too. std::map keeps the
  // schedule deterministic under a fixed seed.
  std::vector<std::map<int64_t, Tuple>> hot_keys(initial_bases.size());

  std::vector<ScheduledTxn> txns;
  txns.reserve(static_cast<size_t>(spec.total_txns));
  double clock = static_cast<double>(spec.start_time);
  for (int i = 0; i < spec.total_txns; ++i) {
    clock += rng.Exponential(spec.mean_interarrival);

    ScheduledTxn txn;
    txn.at = static_cast<SimTime>(std::llround(clock));
    txn.relation =
        spec.relation_skew > 0.0
            ? static_cast<int>(
                  rng.Zipf(view.num_relations(), spec.relation_skew))
            : static_cast<int>(rng.Uniform(0, view.num_relations() - 1));
    auto& pool = present[static_cast<size_t>(txn.relation)];

    int ops = static_cast<int>(rng.Uniform(1, spec.max_ops_per_txn));
    for (int k = 0; k < ops; ++k) {
      if (spec.key_skew > 0.0) {
        auto join_value = [&]() {
          return spec.value_skew > 0.0
                     ? rng.Zipf(chain.join_domain, spec.value_skew)
                     : rng.Uniform(0, chain.join_domain - 1);
        };
        auto& hot = hot_keys[static_cast<size_t>(txn.relation)];
        const int64_t key = FirstFreshKey(chain) +
                            rng.Zipf(spec.key_domain, spec.key_skew);
        auto slot = hot.find(key);
        if (slot == hot.end()) {
          Tuple t = IntTuple({key, join_value(), join_value()});
          hot.emplace(key, t);
          txn.ops.push_back(UpdateOp::Insert(std::move(t)));
        } else if (rng.Bernoulli(spec.insert_fraction)) {
          // Modify: replace the slot's tuple, keeping its key.
          txn.ops.push_back(UpdateOp::Delete(slot->second));
          Tuple t = IntTuple({key, join_value(), join_value()});
          slot->second = t;
          txn.ops.push_back(UpdateOp::Insert(std::move(t)));
        } else {
          txn.ops.push_back(UpdateOp::Delete(slot->second));
          hot.erase(slot);
        }
        continue;
      }
      bool insert = rng.Bernoulli(spec.insert_fraction) || pool.empty();
      if (insert) {
        auto join_value = [&]() {
          return spec.value_skew > 0.0
                     ? rng.Zipf(chain.join_domain, spec.value_skew)
                     : rng.Uniform(0, chain.join_domain - 1);
        };
        Tuple t = IntTuple({next_key++, join_value(), join_value()});
        pool.push_back(t);
        txn.ops.push_back(UpdateOp::Insert(std::move(t)));
      } else {
        size_t victim = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1));
        txn.ops.push_back(UpdateOp::Delete(pool[victim]));
        pool[victim] = pool.back();
        pool.pop_back();
      }
    }
    txns.push_back(std::move(txn));
  }
  return txns;
}

}  // namespace sweepmv
