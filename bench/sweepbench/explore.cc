#include "explore.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/str.h"
#include "trace.h"
#include "verify/controlled_run.h"
#include "verify/effects.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepbench {

using namespace sweepmv;

namespace {

// One exhaustive exploration: a scenario, the level every schedule must
// reach, and (for the sleep-set engine) its refined independence index.
struct Target {
  ControlledScenario scenario;
  ConsistencyLevel required;
  std::optional<EffectsIndex> effects;
};

bool IsCertify(const std::string& workload) {
  return workload == "explore_certify";
}

// explore_certify: the sleep-set engine with refined independence, one
// thread, no dedup, certifying each algorithm's promise on the
// crash-hardened scenarios. explore_naive: every interleaving of the
// query-loss scenario, where the visited-state table, the undo log and
// the thread pool do the work. The first target is the one the traced
// run's probe walks.
std::vector<Target> MakeTargets(const std::string& workload, bool smoke) {
  std::vector<Target> targets;
  if (IsCertify(workload)) {
    targets.push_back(Target{
        GeneratedMultiViewScenario(Algorithm::kSweep, Algorithm::kNestedSweep,
                                   /*updates=*/1, /*crash=*/true),
        ConsistencyLevel::kStrong, std::nullopt});
    targets.push_back(
        Target{FaultyPaperExampleScenario(Algorithm::kSweep),
               PromisedConsistency(Algorithm::kSweep), std::nullopt});
    targets.push_back(
        Target{FaultyPaperExampleScenario(Algorithm::kNestedSweep),
               PromisedConsistency(Algorithm::kNestedSweep), std::nullopt});
  } else {
    targets.push_back(Target{
        smoke ? PaperExampleScenario(Algorithm::kSweep)
              : LossyPaperExampleScenario(Algorithm::kSweep),
        PromisedConsistency(Algorithm::kSweep), std::nullopt});
  }
  return targets;
}

ExplorerConfig ConfigFor(const std::string& workload, const Target& target) {
  const bool certify = IsCertify(workload);
  ExplorerConfig config{target.scenario, target.required,
                        /*sleep_sets=*/certify,
                        /*max_schedules=*/100'000'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  config.use_undo = true;
  if (certify) {
    config.effects = &*target.effects;
  } else {
    config.dedup_states = true;
    config.threads = 2;
  }
  return config;
}

// The traced run's probe: seeded random walks over the first target,
// timing the public ControlledSystem calls an exploration node is made of
// — state hash, snapshot save + restore, one step — and the final
// consistency check.
struct ProbeResult {
  int64_t steps = 0;
  double serialize_s = 0.0;  // SerializeCheckpoint of the last end state
};

constexpr int kProbeWalks = 16;

ProbeResult Probe(const ControlledScenario& scenario, Tracer* tracer) {
  ProbeResult probe;
  for (int walk = 1; walk <= kProbeWalks; ++walk) {
    RandomScheduler scheduler(static_cast<uint64_t>(walk));
    std::optional<ControlledSystem> system;
    {
      ScopedSpan span(tracer, Layer::kVerifyConstruct);
      system.emplace(scenario, &scheduler);
    }
    while (!system->Drained()) {
      {
        ScopedSpan span(tracer, Layer::kVerifyHash);
        Fp128 fp;
        system->HashState(&fp);
      }
      {
        ScopedSpan span(tracer, Layer::kVerifySaveRestore);
        const ControlledSystem::SavedState saved = system->SaveState();
        system->RestoreState(saved);
      }
      ScopedSpan span(tracer, Layer::kVerifyStep);
      probe.steps += system->Run(1);
    }
    {
      ScopedSpan span(tracer, Layer::kVerifyCheck);
      const ConsistencyReport report = system->Check();
      SWEEP_CHECK(report.level != ConsistencyLevel::kInconsistent);
    }
    if (walk == kProbeWalks) {
      const double start = NowSeconds();
      SWEEP_CHECK(!system->warehouse().SerializeCheckpoint().empty());
      probe.serialize_s = NowSeconds() - start;
    }
  }
  return probe;
}

}  // namespace

bool IsExploreWorkload(const std::string& name) {
  return name == "explore_certify" || name == "explore_naive";
}

WorkloadResult RunExplore(const std::string& name,
                          const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> run_s;
  std::vector<double> kernel_s;  // reference kernel, between repetitions
  std::vector<double> wall_throughput;
  int64_t ops_per_rep = 0;
  std::optional<std::vector<ExploreResult>> first;
  const bool certify = IsCertify(name);

  // The first repetition is the reference: untimed (it warms the process
  // up), and every later one must reproduce its outputs exactly.
  auto rep = [&]() {
    const double start = NowSeconds();
    std::vector<Target> targets = MakeTargets(name, options.smoke);
    const double generated = NowSeconds();
    std::vector<ExplorerConfig> configs;
    for (Target& target : targets) {
      if (certify) {
        target.effects.emplace(EffectsIndex::ForScenario(target.scenario));
      }
      configs.push_back(ConfigFor(name, target));
    }
    const double built = NowSeconds();
    gen_s.push_back(generated - start);

    std::vector<ExploreResult> results;
    for (const ExplorerConfig& config : configs) {
      results.push_back(ExploreExhaustive(config));
    }
    const double elapsed = NowSeconds() - built;

    // Certification counts scenarios certified; naive enumeration counts
    // schedules covered (a number fixed by the scenario, since dedup
    // merges cached subtree counts).
    int64_t ops = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const ExploreResult& r = results[i];
      if (!r.exhausted) result.correct = false;
      if (certify) {
        ++ops;
        if (r.violations > 0 || r.worst < targets[i].required) {
          ++result.failed;
        }
      } else {
        ops += r.schedules;
        result.failed += r.violations;
      }
    }
    result.attempted += ops;

    // Schedule-determined outputs. The two-thread engine's work counters
    // (executions, dedup hits) depend on which worker reaches a state
    // first, so only the verdict fields are compared for it.
    std::string text;
    for (const ExploreResult& r : results) {
      text += StrFormat(
          "schedules=%lld violations=%lld exhausted=%d worst=%s ",
          static_cast<long long>(r.schedules),
          static_cast<long long>(r.violations), r.exhausted ? 1 : 0,
          ConsistencyLevelName(r.worst));
      if (certify) {
        text += StrFormat(
            "executions=%lld sleep_pruned=%lld grants=%lld ",
            static_cast<long long>(r.executions),
            static_cast<long long>(r.sleep_pruned),
            static_cast<long long>(r.refined_grants));
      }
    }
    if (!first) {
      first = results;
      ops_per_rep = ops;
      result.deterministic = text;
      return;
    }
    if (text != result.deterministic) {
      result.correct = false;
      result.notes.push_back("FAILED: a repetition explored differently");
    }
    setup_s.push_back(built - start);
    run_s.push_back(elapsed);
    wall_throughput.push_back(static_cast<double>(ops) / elapsed);
  };

  // Timed explorations take the whole budget, or a third of it in the
  // traced run, whose probe runs untraced and traced for a third each.
  const double start = NowSeconds();
  rep();
  const double left = std::max(0.0, options.seconds - (NowSeconds() - start));
  const double budget = options.trace ? left / 3 : left;
  const int min_reps = options.smoke ? 1 : 3;
  // The reference exploration reached the memory high-water mark; read
  // it before the reference kernel allocates in this process.
  const double peak_rss_mb = PeakRssMb();
  kernel_s.push_back(ReferenceKernelSeconds());
  RepeatFor(budget, min_reps, [&](int) {
    rep();
    kernel_s.push_back(ReferenceKernelSeconds());
  });
  result.samples.emplace_back("setup_s", setup_s);
  result.samples.emplace_back("reference_s", kernel_s);
  const double wall_rate =
      static_cast<double>(ops_per_rep) / Summarize(run_s).median;
  const double kernel = Summarize(kernel_s).median;
  std::vector<double> ref_throughput;
  for (double rate : wall_throughput) ref_throughput.push_back(rate * kernel);
  result.samples.emplace_back("throughput_vs_ref", ref_throughput);
  result.samples.emplace_back("wall_throughput_per_s", wall_throughput);
  if (!options.trace) {
    result.Add("throughput_vs_ref", wall_rate * kernel, "ops/ref");
    result.Add("setup_s", Summarize(setup_s).median, "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }
  result.Add("wall.throughput_per_s", wall_rate, "1/s");
  result.Add("wall.reference_s", kernel, "s");
  const ControlledScenario scenario = MakeTargets(name, options.smoke)
                                          .front()
                                          .scenario;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Tracer tracer;
  ProbeResult probe;
  RepeatFor(budget, min_reps, [&](int) {
    const double t = NowSeconds();
    Probe(scenario, nullptr);
    untraced_s.push_back(NowSeconds() - t);
  });
  RepeatFor(budget, min_reps, [&](int) {
    const double t = NowSeconds();
    probe = Probe(scenario, &tracer);
    traced_s.push_back(NowSeconds() - t);
  });
  double traced_total = 0.0;
  for (double s : traced_s) traced_total += s;
  auto frac = [&](Layer layer) {
    return Share(tracer.totals(layer).self_s, traced_total);
  };

  int64_t executions = 0;
  int64_t dedup_hits = 0;
  int64_t dedup_inserts = 0;
  int64_t undo_entries = 0;
  int64_t undo_rollbacks = 0;
  int64_t anchors = 0;
  int64_t sleep_pruned = 0;
  int64_t grants = 0;
  for (const ExploreResult& r : *first) {
    executions += r.executions;
    dedup_hits += r.dedup_hits;
    dedup_inserts += r.dedup_inserts;
    undo_entries += r.undo_entries;
    undo_rollbacks += r.undo_rollbacks;
    anchors += r.anchor_snapshots;
    sleep_pruned += r.sleep_pruned;
    grants += r.refined_grants;
  }
  const Tracer::LayerTotals& check = tracer.totals(Layer::kVerifyCheck);
  result.Add("sim.events", static_cast<double>(probe.steps), "count");
  result.Add("ckpt.serialize_ms_final", 1000.0 * probe.serialize_s, "ms");
  result.Add("workload.gen_s", Summarize(gen_s).median, "s");
  result.Add("consistency.check_s",
             Share(check.self_s, static_cast<double>(check.calls)), "s");
  result.Add("verify.executions", static_cast<double>(executions), "count");
  result.Add("verify.dedup_hits", static_cast<double>(dedup_hits), "count");
  result.Add("verify.dedup_hit_rate",
             Share(dedup_hits, dedup_hits + dedup_inserts), "ratio");
  result.Add("verify.undo_per_rollback", Share(undo_entries, undo_rollbacks),
             "ratio");
  result.Add("verify.anchor_snapshots", static_cast<double>(anchors),
             "count");
  result.Add("verify.sleep_pruned", static_cast<double>(sleep_pruned),
             "count");
  result.Add("verify.refined_grants", static_cast<double>(grants), "count");
  result.Add("verify.construct_frac", frac(Layer::kVerifyConstruct), "frac");
  result.Add("verify.step_frac", frac(Layer::kVerifyStep), "frac");
  result.Add("verify.hash_frac", frac(Layer::kVerifyHash), "frac");
  result.Add("verify.save_restore_frac", frac(Layer::kVerifySaveRestore),
             "frac");
  result.Add("verify.check_frac", frac(Layer::kVerifyCheck), "frac");
  AddTraceMetrics(&result, tracer, traced_total, traced_s, untraced_s,
                  options.trace_dir, name);
  return result;
}

}  // namespace sweepbench
