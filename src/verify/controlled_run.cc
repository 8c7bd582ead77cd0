#include "verify/controlled_run.h"

#include <utility>

#include "common/check.h"
#include "common/str.h"
#include "sim/latency.h"

namespace sweepmv {

namespace {

constexpr int kWarehouseSite = 0;

// Content digest of a transaction choice point: which relation, which
// operations. Two txn events with equal digests are interchangeable —
// exactly when swapping them cannot change any reachable state.
uint64_t TxnDigest(int relation, const std::vector<UpdateOp>& ops) {
  StateHasher h;
  h.U64("txn.rel", static_cast<uint64_t>(relation));
  h.U64("txn.ops", ops.size());
  for (const UpdateOp& op : ops) {
    h.I64("op.kind", op.kind == UpdateOp::Kind::kInsert ? 1 : -1);
    h.U64("op.tuple", op.tuple.Hash());
  }
  const Fp128 d = h.Digest();
  const uint64_t folded = d.lo ^ d.hi;
  return folded == 0 ? 1 : folded;
}

// Fault choice points carry a fixed tag: all pending crash (or arm-drop)
// events are mutually interchangeable.
uint64_t InternalEventDigest(const char* what) {
  StateHasher h;
  h.Str("internal", what);
  const Fp128 d = h.Digest();
  const uint64_t folded = d.lo ^ d.hi;
  return folded == 0 ? 1 : folded;
}

TraceStep RecordStep(const std::vector<Scheduler::Candidate>& ready,
                     size_t chosen) {
  TraceStep step;
  step.label = ready[chosen].label;
  step.when = ready[chosen].when;
  step.chosen = chosen;
  step.ready.reserve(ready.size());
  for (const Scheduler::Candidate& c : ready) step.ready.push_back(c.label);
  return step;
}

}  // namespace

size_t ReplayScheduler::Pick(const std::vector<Candidate>& ready) {
  SWEEP_CHECK(!ready.empty());
  size_t choice = cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  if (choice >= ready.size()) choice = ready.size() - 1;
  trace_.steps.push_back(RecordStep(ready, choice));
  return choice;
}

size_t RandomScheduler::Pick(const std::vector<Candidate>& ready) {
  SWEEP_CHECK(!ready.empty());
  const size_t choice = static_cast<size_t>(
      rng_.Uniform(0, static_cast<int64_t>(ready.size()) - 1));
  trace_.steps.push_back(RecordStep(ready, choice));
  return choice;
}

ControlledSystem::ControlledSystem(const ControlledScenario& scenario,
                                   Scheduler* scheduler)
    : view_(scenario.view),
      bases_(scenario.initial_bases),
      network_(&sim_, LatencyModel::Fixed(scenario.latency), /*seed=*/1) {
  const int n = view_.num_relations();
  SWEEP_CHECK(static_cast<int>(bases_.size()) == n);
  sim_.SetScheduler(scheduler);

  std::vector<int> source_sites;
  if (RequiresSingleSource(scenario.algorithm)) {
    source_sites.assign(static_cast<size_t>(n), 1);
    eca_source_ = std::make_unique<EcaSource>(
        1, bases_, &view_, &network_, kWarehouseSite, &ids_);
    network_.RegisterSite(1, eca_source_.get());
  } else {
    for (int r = 0; r < n; ++r) {
      source_sites.push_back(r + 1);
      sources_.push_back(std::make_unique<DataSource>(
          r + 1, r, bases_[static_cast<size_t>(r)], &view_, &network_,
          kWarehouseSite, &ids_));
      network_.RegisterSite(r + 1, sources_.back().get());
    }
  }
  warehouses_.push_back(MakeWarehouse(scenario.algorithm, kWarehouseSite,
                                      view_, &network_, source_sites,
                                      scenario.warehouse));
  network_.RegisterSite(kWarehouseSite, warehouses_.front().get());

  // Extra warehouses (multi-view deployment): same view, same sources,
  // each running its own algorithm at its own site past the sources.
  SWEEP_CHECK_MSG(scenario.extra_warehouses.empty() ||
                      eca_source_ == nullptr,
                  "multi-warehouse scenarios require per-relation sources");
  for (size_t w = 0; w < scenario.extra_warehouses.size(); ++w) {
    const Algorithm alg = scenario.extra_warehouses[w];
    SWEEP_CHECK_MSG(!RequiresSingleSource(alg),
                    "single-source algorithms cannot share sources with "
                    "other warehouses");
    const int site = n + 1 + static_cast<int>(w);
    warehouses_.push_back(MakeWarehouse(alg, site, view_, &network_,
                                        source_sites, scenario.warehouse));
    network_.RegisterSite(site, warehouses_.back().get());
    for (auto& source : sources_) source->AddWarehouse(site);
  }

  std::vector<const Relation*> rels;
  for (const Relation& r : bases_) rels.push_back(&r);
  for (auto& warehouse : warehouses_) {
    warehouse->InitializeView(view_.EvaluateFull(rels));
    warehouse->InitializeAuxiliary(bases_);
  }

  // Pre-create every link now, outside any explored step: LinkFor's lazy
  // creation forks the network RNG, and the effect oracle would otherwise
  // see that fork as a hidden rng_ write charged to whichever handler
  // happened to send on the link first.
  std::vector<int> all_sites;
  all_sites.push_back(kWarehouseSite);
  if (eca_source_ != nullptr) {
    all_sites.push_back(1);
  } else {
    for (int r = 0; r < n; ++r) all_sites.push_back(r + 1);
  }
  for (size_t w = 0; w < scenario.extra_warehouses.size(); ++w) {
    all_sites.push_back(n + 1 + static_cast<int>(w));
  }
  network_.PrecreateLinks(all_sites);

  // All transactions enter at t=0; only the schedule orders them against
  // deliveries. Same-relation transactions stay in list order (their
  // events share a channel). Each carries a content digest so the state
  // fingerprint can describe it canonically while it is still pending.
  for (const ControlledTxn& txn : scenario.txns) {
    SWEEP_CHECK(txn.relation >= 0 && txn.relation < n);
    const int site = eca_source_ != nullptr ? 1 : txn.relation + 1;
    const EventLabel label{EventKind::kTxn, -1, site, "txn"};
    const int rel = txn.relation;
    const auto ops = txn.ops;
    sim_.ScheduleAt(0, label, TxnDigest(rel, ops), [this, rel, ops]() {
      if (eca_source_ != nullptr) {
        eca_source_->ApplyTransaction(rel, ops);
      } else {
        sources_[static_cast<size_t>(rel)]->ApplyTransaction(ops);
      }
    });
  }

  // Fault choice points enter at t=0 like transactions: internal events
  // share one channel and are dependent on everything, so the explorer
  // tries the crash (or drop) at every position of every schedule.
  for (int i = 0; i < scenario.warehouse_crashes; ++i) {
    const EventLabel label{EventKind::kInternal, -1, kWarehouseSite,
                           "warehouse-crash"};
    sim_.ScheduleAt(0, label, InternalEventDigest("warehouse-crash"),
                    [this]() { warehouses_.front()->CrashAndRecover(); });
  }
  for (int i = 0; i < scenario.max_message_drops; ++i) {
    const EventLabel label{EventKind::kInternal, -1, kWarehouseSite,
                           "arm-drop"};
    sim_.ScheduleAt(0, label, InternalEventDigest("arm-drop"),
                    [this]() { network_.ArmControlledDrop(); });
  }
}

bool ControlledSystem::WarehouseIdle() const {
  for (const auto& warehouse : warehouses_) {
    if (!warehouse->update_queue().empty() || warehouse->Busy()) {
      return false;
    }
  }
  return true;
}

void ControlledSystem::AttachUndo(UndoLog* undo) {
  sim_.AttachUndo(undo);
  network_.AttachUndo(undo);
  for (auto& source : sources_) source->AttachUndo(undo);
  if (eca_source_ != nullptr) eca_source_->AttachUndo(undo);
  for (auto& warehouse : warehouses_) warehouse->AttachUndo(undo);
}

bool ControlledSystem::HashState(Fp128* fp) const {
  StateHasher h;
  StateHashVisitor visitor(h, /*exact=*/false);
  VisitState(*this, visitor);
  *fp = h.Digest();
  return visitor.hashable();
}

std::string ControlledSystem::CanonicalDebugDump() const {
  StateHasher h(/*keep_text=*/true);
  StateHashVisitor visitor(h, /*exact=*/true);
  VisitState(*this, visitor);
  return h.Text();
}

int64_t ControlledSystem::Run(int64_t max_steps) {
  return sim_.Run(max_steps);
}

std::vector<const StateLog*> ControlledSystem::SourceLogs() const {
  std::vector<const StateLog*> logs;
  for (int r = 0; r < view_.num_relations(); ++r) {
    logs.push_back(eca_source_ != nullptr
                       ? &eca_source_->log(r)
                       : &sources_[static_cast<size_t>(r)]->log());
  }
  return logs;
}

ControlledSystem::SavedState ControlledSystem::SaveState() const {
  SWEEP_CHECK_MSG(sim_.controlled() && network_.pristine(),
                  "snapshots require a controlled simulator and pristine "
                  "links");
  SavedState state;
  StateSaver saver(&state.members);
  VisitState(*this, saver);
  return state;
}

void ControlledSystem::RestoreState(const SavedState& state) {
  StateRestorer restorer(state.members);
  VisitState(*this, restorer);
  SWEEP_CHECK(restorer.AtEnd());
}

ConsistencyReport ControlledSystem::Check() const {
  ConsistencyReport worst = CheckConsistency(view_, SourceLogs(),
                                             *warehouses_.front());
  for (size_t i = 1; i < warehouses_.size(); ++i) {
    ConsistencyReport report =
        CheckConsistency(view_, SourceLogs(), *warehouses_[i]);
    if (report.level < worst.level) worst = std::move(report);
  }
  return worst;
}

std::string ControlledOutcome::Fingerprint() const {
  std::string out = trace.ToString();
  out += StrFormat("steps: %lld  installs: %zu  level: %s\n",
                   static_cast<long long>(steps), installs,
                   ConsistencyLevelName(report.level));
  out += "final view: " + final_view + "\n";
  return out;
}

ControlledOutcome RunWithChoices(const ControlledScenario& scenario,
                                 const std::vector<size_t>& choices,
                                 int64_t max_steps) {
  ReplayScheduler scheduler(choices);
  ControlledSystem system(scenario, &scheduler);
  ControlledOutcome outcome;
  outcome.steps = system.Run(max_steps);
  outcome.completed = system.Drained() && system.WarehouseIdle();
  if (outcome.completed) {
    outcome.report = system.Check();
  } else {
    outcome.report.level = ConsistencyLevel::kInconsistent;
    outcome.report.detail =
        system.Drained()
            ? "run drained with the warehouse still busy"
            : "run exceeded the step budget (runaway schedule?)";
  }
  outcome.trace = scheduler.trace();
  outcome.installs = system.warehouse().install_log().size();
  outcome.final_view = system.warehouse().view().ToDisplayString();
  return outcome;
}

}  // namespace sweepmv
