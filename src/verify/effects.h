// Refined independence: the one grant the site rule cannot make.
//
// verify/schedule.h's site rule lets two events commute iff they execute
// at different sites, and declares internal events (crash, arm-drop)
// dependent on everything. That is sound but coarse: a controlled
// warehouse crash and a source transaction commute, and the sleep-set
// search that knows it prunes every schedule that merely reorders the
// two.
//
// EffectsIndex grants exactly that pair, because the two events write
// disjoint state:
//
//   * a crash (Warehouse::CrashAndRecover) writes only its warehouse's
//     members, that warehouse's outgoing links (the re-issued queries)
//     and order-blind counters (the network's message statistics);
//   * a transaction (DataSource::ApplyTxn) writes only its source, that
//     source's outgoing links (the update notifications), the counters
//     and the update-id generator.
//
// Neither reads what the other writes, and counter bumps commute. Both
// also append events to the simulator, which the canonical fingerprint
// describes per channel, so append order across channels is not state.
//
// Scenarios that can arm a message drop get no grant. A crash and an
// arm-drop share the internal channel, so their EventIds cannot tell
// them apart: sleeping the crash would sleep the arm-drop too, and an
// armed drop consumes the next message a transaction sends.
//
// The rule is checked at run time, not trusted: with
// ExplorerConfig::effects_oracle the explorer replays every grant it
// uses in both orders from the node where it uses it (CommuteAt,
// verify/explorer.h).

#ifndef SWEEPMV_VERIFY_EFFECTS_H_
#define SWEEPMV_VERIFY_EFFECTS_H_

#include <cstdint>

#include "verify/controlled_run.h"

namespace sweepmv {

class EffectsIndex {
 public:
  // The grant as it applies to `scenario`: on unless it arms drops.
  static EffectsIndex ForScenario(const ControlledScenario& scenario);

  // True iff one of `a` and `b` is a source transaction, the other the
  // warehouse crash, and the scenario arms no message drop. False is not
  // a dependence verdict, merely "no grant": the caller must still apply
  // the site rule.
  bool Commute(const EventLabel& a, const EventLabel& b) const;

 private:
  EffectsIndex() = default;

  bool crash_commutes_with_txn_ = false;
};

// The explorer's independence relation: the site rule, sharpened by the
// crash/transaction grant when an index is supplied. Increments
// `*refined_grants` each time the grant fires where the site rule alone
// would not.
bool IndependentUnder(const EffectsIndex* effects, const EventLabel& a,
                      const EventLabel& b,
                      int64_t* refined_grants = nullptr);

}  // namespace sweepmv

#endif  // SWEEPMV_VERIFY_EFFECTS_H_
