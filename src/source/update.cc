#include "source/update.h"

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

bool Update::IsPureDelete() const {
  if (delta.Empty()) return false;
  for (const auto& [t, c] : delta.entries()) {
    if (c > 0) return false;
  }
  return true;
}

std::string Update::ToDisplayString() const {
  return StrFormat("u%lld@R%d ", static_cast<long long>(id), relation) +
         delta.ToDisplayString();
}

Relation OpsToDelta(const Schema& schema, const std::vector<UpdateOp>& ops) {
  Relation delta(schema);
  for (const UpdateOp& op : ops) {
    delta.Add(op.tuple, op.kind == UpdateOp::Kind::kInsert ? 1 : -1);
  }
  return delta;
}

void CheckDeltaApplied(const Relation& base, const Relation& delta) {
  for (const auto& [t, c] : delta.entries()) {
    SWEEP_CHECK_MSG(c > 0 || base.CountOf(t) >= 0,
                    "transaction deleted a tuple that was not present");
  }
}

}  // namespace sweepmv
