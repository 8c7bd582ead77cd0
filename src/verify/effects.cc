#include "verify/effects.h"

#include <cstring>

namespace sweepmv {

namespace {

bool IsWarehouseCrash(const EventLabel& label) {
  return label.kind == EventKind::kInternal && label.what != nullptr &&
         std::strcmp(label.what, "warehouse-crash") == 0;
}

}  // namespace

EffectsIndex EffectsIndex::ForScenario(const ControlledScenario& scenario) {
  EffectsIndex index;
  index.crash_commutes_with_txn_ = scenario.max_message_drops == 0;
  return index;
}

bool EffectsIndex::Commute(const EventLabel& a, const EventLabel& b) const {
  return crash_commutes_with_txn_ &&
         ((IsWarehouseCrash(a) && b.kind == EventKind::kTxn) ||
          (IsWarehouseCrash(b) && a.kind == EventKind::kTxn));
}

bool IndependentUnder(const EffectsIndex* effects, const EventLabel& a,
                      const EventLabel& b, int64_t* refined_grants) {
  if (Independent(a, b)) return true;
  if (effects != nullptr && effects->Commute(a, b)) {
    if (refined_grants != nullptr) ++(*refined_grants);
    return true;
  }
  return false;
}

}  // namespace sweepmv
