// SPJ view definitions over a chain of base relations.
//
// The paper's materialized view is
//
//   V = Π_ProjAttr σ_SelectCond (R1 ⋈ R2 ⋈ … ⋈ Rn)
//
// with the join written as a linear chain: each consecutive pair (Ri,
// Ri+1) is linked by equi-join conditions. ViewDef captures that shape:
// per-relation schemas, chain join keys, a selection predicate over the
// concatenated ("joined") schema, and a projection list. The selection and
// projection are applied only once a delta spans all n relations (at the
// warehouse); intermediate sweep results keep every attribute because the
// chain keys of not-yet-joined neighbours are still needed.

#ifndef SWEEPMV_RELATIONAL_VIEW_DEF_H_
#define SWEEPMV_RELATIONAL_VIEW_DEF_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relational/operators.h"
#include "relational/predicate.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace sweepmv {

class ViewDef {
 public:
  class Builder;

  int num_relations() const { return static_cast<int>(schemas_.size()); }
  const Schema& rel_schema(int rel) const;
  const std::string& rel_name(int rel) const;

  // Concatenation of all relation schemas, in chain order.
  const Schema& joined_schema() const { return joined_schema_; }

  // Offset of relation `rel`'s first attribute within the joined schema.
  int attr_offset(int rel) const;

  // Equi-join key pairs between relation `rel` and `rel + 1`, with
  // positions local to each relation.
  const std::vector<std::pair<int, int>>& chain_keys(int rel) const;

  const Predicate& selection() const { return selection_; }

  // Projection positions within the joined schema (never empty; defaults
  // to the identity projection).
  const std::vector<int>& projection() const { return projection_; }

  // Schema of the view output (after projection).
  const Schema& view_schema() const { return view_schema_; }

  // Join keys for extending a partial delta spanning [rel+1, hi] with
  // relation `rel` placed on the LEFT: pairs (attr in rel, attr in
  // partial).
  std::vector<std::pair<int, int>> ExtendLeftKeys(int rel) const;

  // Join keys for extending a partial delta spanning [lo, rel-1] (LEFT)
  // with relation `rel` on the RIGHT: pairs (attr in partial, attr in rel).
  std::vector<std::pair<int, int>> ExtendRightKeys(int lo, int rel) const;

  // The same keys split by side, computed once at Build(): what every
  // sweep hop joins on.
  const JoinKeys& LeftExtension(int rel) const;
  const JoinKeys& RightExtension(int lo, int rel) const;

  // Schema of a delta spanning relations [lo, hi]: their schemas
  // concatenated, computed once at Build(). span_schema(0, n-1) is
  // joined_schema().
  const Schema& span_schema(int lo, int hi) const;

  // Positions of relation `rel`'s attributes within a full-span tuple.
  std::vector<int> RelPositionsInJoined(int rel) const;

  // Positions of relation `rel`'s attributes within a tuple spanning
  // relations [lo, hi] (rel must lie inside the span).
  std::vector<int> RelPositionsInSpan(int lo, int hi, int rel) const;

  // Evaluates the view from scratch over the given base relations (used by
  // the consistency checker's replay and the recompute baseline).
  Relation EvaluateFull(const std::vector<const Relation*>& rels) const;

  // Applies the selection and projection to a relation over the joined
  // schema (a delta that has been swept across every relation), in one
  // pass that appends projected cells straight into the result. A true
  // selection and an identity projection return `full_span` itself.
  Relation FinishFullSpan(Relation full_span) const;

  std::string ToDisplayString() const;

 private:
  ViewDef() = default;

  std::vector<std::string> names_;
  std::vector<Schema> schemas_;
  // offsets_[i] = first attr of rel i; offsets_[n] = the joined arity.
  std::vector<int> offsets_;
  // chain_keys_[i] links relation i and i+1 (size n-1).
  std::vector<std::vector<std::pair<int, int>>> chain_keys_;
  // Derived in Build() and shared by every copy of the view.
  struct Spans {
    std::vector<Schema> schemas;          // [lo * n + hi]
    std::vector<JoinKeys> left;           // [rel]
    std::vector<JoinKeys> right;          // [lo * n + rel]
  };
  std::shared_ptr<const Spans> spans_;
  Schema joined_schema_;
  Predicate selection_;
  std::vector<int> projection_;
  // True when projection_ is 0..arity-1 of the joined schema (derived in
  // Build()).
  bool identity_projection_ = false;
  Schema view_schema_;
};

// Fluent construction:
//
//   ViewDef v = ViewDef::Builder()
//       .AddRelation("R1", Schema::AllInts({"A", "B"}))
//       .AddRelation("R2", Schema::AllInts({"C", "D"}))
//       .JoinOn(0, 1, 0)               // R1.B = R2.C
//       .Select(pred_over_joined)      // optional
//       .Project({3})                  // optional, joined-schema positions
//       .Build();
class ViewDef::Builder {
 public:
  Builder& AddRelation(std::string name, Schema schema);

  // Adds an equi-join condition between relation `left_rel` and
  // `left_rel + 1`: attribute `left_attr` of the former equals attribute
  // `right_attr` of the latter (positions local to each relation).
  Builder& JoinOn(int left_rel, int left_attr, int right_attr);

  // Sets the selection predicate (over the joined schema).
  Builder& Select(Predicate pred);

  // Sets the projection (positions within the joined schema).
  Builder& Project(std::vector<int> positions);

  // Finalizes. Requires at least one relation; every consecutive pair must
  // have at least one join condition unless a cross product is explicitly
  // intended (allowed: a pair with no conditions joins as a product, which
  // mirrors the paper's generic ⋈).
  ViewDef Build();

 private:
  ViewDef view_;
  bool built_ = false;
};

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_VIEW_DEF_H_
