// Relational operators over counted bag relations.
//
// All operators follow the counting algebra: selection filters entries,
// projection sums counts of collapsing tuples, joins multiply counts.
// Deltas (negative counts) flow through unchanged, which is what lets the
// warehouse evaluate compensation terms like ΔRj ⋈ TempView locally.

#ifndef SWEEPMV_RELATIONAL_OPERATORS_H_
#define SWEEPMV_RELATIONAL_OPERATORS_H_

#include <utility>
#include <vector>

#include "relational/predicate.h"
#include "relational/relation.h"

namespace sweepmv {

// σ_pred(r): keeps entries whose tuple satisfies the predicate.
Relation Select(const Relation& r, const Predicate& pred);

// Π_positions(r): projects every tuple onto `positions`; counts of tuples
// that collapse are summed (and zero-sum entries vanish).
Relation Project(const Relation& r, const std::vector<int>& positions);

// Equi-join key columns, split by side: left[i] joins right[i].
struct JoinKeys {
  std::vector<int> left;
  std::vector<int> right;

  // Splits (attribute position in left, attribute position in right)
  // pairs.
  static JoinKeys FromPairs(const std::vector<std::pair<int, int>>& pairs);
};

// Equi-join. `keys` pairs (attribute position in left, attribute position
// in right); an empty key list is a cross product. The result schema is
// left.schema ++ right.schema and each output count is the product of the
// matching input counts.
Relation Join(const Relation& left, const Relation& right,
              const std::vector<std::pair<int, int>>& keys);

// The same join with split keys and the output schema given, whose types
// must be left's followed by right's: a caller that joins the same shapes
// on every hop (view_def.h precomputes both) builds neither per call.
Relation Join(const Relation& left, const Relation& right,
              const JoinKeys& keys, Schema out_schema);

// left + right (bag union in the counting algebra).
Relation Union(const Relation& left, const Relation& right);

// left - right (count subtraction; entries may go negative: this is the
// delta-difference used for compensation, not the "monus" of set algebra).
Relation Subtract(const Relation& left, const Relation& right);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_OPERATORS_H_
