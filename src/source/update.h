// Source updates.
//
// Updates follow the paper's model (Section 2): inserts and deletes of
// tuples; a modify is a delete followed by an insert; a source-local
// transaction is a sequence of such operations executed atomically at one
// source and shipped to the warehouse as a single unit. An Update is that
// unit: the signed-count delta of one atomic step of one base relation.

#ifndef SWEEPMV_SOURCE_UPDATE_H_
#define SWEEPMV_SOURCE_UPDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/tuple.h"
#include "sim/time.h"

namespace sweepmv {

// One primitive operation inside a transaction.
struct UpdateOp {
  enum class Kind : uint8_t { kInsert, kDelete };

  Kind kind = Kind::kInsert;
  Tuple tuple;

  static UpdateOp Insert(Tuple t) {
    return UpdateOp{Kind::kInsert, std::move(t)};
  }
  static UpdateOp Delete(Tuple t) {
    return UpdateOp{Kind::kDelete, std::move(t)};
  }
};

// The atomically-executed unit a source ships to the warehouse.
struct Update {
  // Globally unique id. Instrumentation only — used by the install log and
  // the consistency checker, never by the maintenance algorithms.
  int64_t id = -1;

  // Index of the base relation in the view's chain (equals the source site
  // position in the distributed model).
  int relation = -1;

  // Signed-count delta over the base relation's schema.
  Relation delta;

  // Virtual time at which the source executed the transaction.
  SimTime applied_at = 0;

  // True if every operation was a delete (used by the Strobe family, which
  // branches on update type). Mixed transactions count as neither pure
  // insert nor pure delete.
  bool IsPureInsert() const { return !delta.Empty() && !delta.HasNegative(); }
  bool IsPureDelete() const;

  std::string ToDisplayString() const;

  template <class Self, class V>
  static void VisitState(Self& self, V& v) {
    v.Protocol("id", self.id);
    v.Protocol("relation", self.relation);
    v.Protocol("delta", self.delta);
    v.Protocol("applied_at", self.applied_at);
  }
};

// Builds the signed-count delta of a transaction's operations: each insert
// adds +1 and each delete -1 to its tuple, so an insert-then-delete of the
// same tuple inside one transaction cancels.
Relation OpsToDelta(const Schema& schema, const std::vector<UpdateOp>& ops);

// Aborts if `base`, after merging `delta` into it, holds a negative count:
// the transaction deleted a tuple that was not present. `base` had only
// positive counts before, so only the tuples `delta` deletes need a look
// (O(|delta|), not O(|base|)).
void CheckDeltaApplied(const Relation& base, const Relation& delta);

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_UPDATE_H_
