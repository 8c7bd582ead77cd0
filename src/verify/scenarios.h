// Canonical scenarios for the schedule-space explorer.
//
// The paper's Section 5.2 worked example (Figure 5) — the three-relation
// join view with one update at each source — is the exhaustive-mode
// benchmark scenario: small enough to enumerate, rich enough to exercise
// every interference pattern the proofs argue about. The anomaly
// scenario drives the same view through ECA with its compensating offset
// terms disabled, which is the naive maintenance Section 3 shows to be
// incorrect; the explorer finds the racing interleaving and produces the
// minimized counterexample.

#ifndef SWEEPMV_VERIFY_SCENARIOS_H_
#define SWEEPMV_VERIFY_SCENARIOS_H_

#include <vector>

#include "verify/controlled_run.h"

namespace sweepmv {

// The paper's view, V = Π[D,F] (R1[A,B] ⋈(B=C) R2[C,D] ⋈(D=E) R3[E,F]).
ViewDef PaperView();

// Figure 5's initial bases of `view` (PaperView()): R1 = {(1,3), (2,3)},
// R2 = {(3,7)}, R3 = {(5,6), (7,8)}.
std::vector<Relation> PaperBases(const ViewDef& view);

// V = Π[D,F] (R1[A,B] ⋈(B=C) R2[C,D] ⋈(D=E) R3[E,F]) with Figure 5's
// initial bases and the three concurrent updates of Section 5.2 (insert
// R2(3,5), delete R3(7,8), delete R1(2,3)), under `algorithm`.
ControlledScenario PaperExampleScenario(Algorithm algorithm);

// The same view with two interfering updates — insert R2(3,5), insert
// R1(9,3), the Section 4 error-term example — under ECA with
// `compensation`. With compensation off there exist schedules whose
// contaminated answer is applied raw and double-counts the joint tuple:
// the update anomaly, reachable by the explorer.
ControlledScenario EcaAnomalyScenario(bool compensation);

// Figure 5's scenario hardened with crash-recovery: the warehouse keeps a
// durable checkpoint (cut every 2 WAL entries) and one crash/recover
// event enters the schedule as an internal choice point, so exhaustive
// exploration certifies the algorithm's consistency promise across every
// interleaving containing the crash — checkpoint restore, WAL replay and
// epoch-tagged query re-issue included.
ControlledScenario FaultyPaperExampleScenario(Algorithm algorithm);

// Ablation of the recovery epoch filter, under Pipelined SWEEP with two
// updates on one relation: the restarted warehouse accepts answers
// produced for the dead incarnation's queries. Recovery rewinds the
// query-id counter, and with concurrent sweeps the post-crash id
// assignment depends on answer arrival order, so a stale in-flight
// answer can resolve a re-issued query that belongs to the *other*
// sweep — the explorer finds the interleaving where the view silently
// diverges. With the filter on, the same schedule space is certified
// clean.
ControlledScenario UnfilteredRecoveryScenario();

// One update racing one silent query-class message loss, healed by the
// warehouse's timeout re-issue (capped exponential backoff). Exhaustive
// exploration certifies the loss is harmless wherever it lands.
ControlledScenario LossyPaperExampleScenario(Algorithm algorithm);

// Generated stress scenario for the exploration engines themselves: the
// paper's three-relation join view, `updates` join-relevant insertions
// spread round-robin across the relations, a second warehouse
// maintaining the same view under `second` (every source ships each
// update to both sites), and — when `crash` — two crash/recover choice
// points at the primary (checkpoint cadence 2). The doubled message
// traffic and the crash placements blow the interleaving lattice up far
// past the worked example (millions of naive schedules at updates=1),
// big enough that frontier splitting amortizes, and diamond-rich:
// schedules that crash at different points converge to identical
// post-recovery states, so the visited-state table collapses the space
// by an order of magnitude. `updates` must be >= 1.
ControlledScenario GeneratedMultiViewScenario(Algorithm primary,
                                              Algorithm second,
                                              int updates, bool crash);

}  // namespace sweepmv

#endif  // SWEEPMV_VERIFY_SCENARIOS_H_
