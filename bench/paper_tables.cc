#include "bench/paper_tables.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/str.h"
#include "common/table.h"
#include "consistency/checker.h"
#include "core/factory.h"
#include "harness/scenario.h"
#include "harness/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"
#include "verify/scenarios.h"

namespace sweepmv {

namespace {

std::string Fixed1(double v) { return StrFormat("%.1f", v); }
std::string Ticks(double v) { return StrFormat("%.0f", v); }
std::string Sci(double v) { return StrFormat("%.2e", v); }
std::string Int(int64_t v) {
  return StrFormat("%lld", static_cast<long long>(v));
}

// A generated chain of `n` relations holding `tuples` tuples each, join
// attributes uniform over [0, domain), and `txns` single-op transactions
// at mean inter-arrival `interarrival`; every other field keeps its
// default.
ScenarioConfig Chain(Algorithm algorithm, int n, int tuples, int64_t domain,
                     int txns, double interarrival, LatencyModel latency) {
  ScenarioConfig config;
  config.algorithm = algorithm;
  config.chain.num_relations = n;
  config.chain.initial_tuples = tuples;
  config.chain.join_domain = domain;
  config.workload.total_txns = txns;
  config.workload.mean_interarrival = interarrival;
  config.latency = latency;
  return config;
}

// Runs `config`; a final view that differs from ground truth is a
// failure of `artifact`.
RunResult Run(const ScenarioConfig& config, PaperArtifact* artifact) {
  RunResult r = RunScenario(config);
  if (r.final_view != r.expected_view) {
    artifact->failures.push_back(StrFormat(
        "%s diverged from ground truth (n=%d, inter-arrival %.0f, seed %llu)",
        AlgorithmName(config.algorithm), config.chain.num_relations,
        config.workload.mean_interarrival,
        static_cast<unsigned long long>(config.chain.seed)));
  }
  return r;
}

void Claim(bool holds, const std::string& what, PaperArtifact* artifact) {
  if (!holds) artifact->failures.push_back("claim broken: " + what);
}

// Sections 5.3 and 6.2: SWEEP sends exactly 2(n-1) maintenance messages
// per update, however hard the updates interfere.
void ClaimSweepCost(const RunResult& sweep, int n, PaperArtifact* artifact) {
  Claim(sweep.maintenance_msgs_per_update == 2.0 * (n - 1),
        StrFormat("SWEEP sent %g msgs/update at n=%d, not 2(n-1)",
                  sweep.maintenance_msgs_per_update, n),
        artifact);
}

// The Section 5.2 run behind Figures 2 and 5: Figure 5's bases under
// SWEEP with a fixed one-way latency of 1000 ticks, and its three
// updates issued at t = 0, 400 and 500, so that the notifications of
// ΔR3 and ΔR1 reach the warehouse while ΔR2's sweep is in flight.
struct PaperExampleRun {
  // Figure 2's space-time rendering of every message and install.
  std::string timeline;
  // The initial view, then the view after each install.
  std::vector<Relation> views;
  int64_t queries = 0;
  int64_t answers = 0;
  ConsistencyLevel consistency = ConsistencyLevel::kInconsistent;
};

PaperExampleRun RunPaperExample(PaperArtifact* artifact) {
  const ViewDef view = PaperView();
  const std::vector<Relation> bases = PaperBases(view);
  Simulator sim;
  Network network(&sim, LatencyModel::Fixed(1000), 1);
  TraceRecorder trace;
  trace.Attach(&network);

  UpdateIdGenerator ids;
  std::vector<std::unique_ptr<DataSource>> sources;
  for (int r = 0; r < 3; ++r) {
    sources.push_back(std::make_unique<DataSource>(
        r + 1, r, bases[static_cast<size_t>(r)], &view, &network, 0,
        &ids));
    network.RegisterSite(r + 1, sources.back().get());
  }
  std::unique_ptr<Warehouse> warehouse = MakeWarehouse(
      Algorithm::kSweep, 0, view, &network, {1, 2, 3}, WarehouseConfig{});
  network.RegisterSite(0, warehouse.get());
  PaperExampleRun run;
  run.views.push_back(view.EvaluateFull({&bases[0], &bases[1], &bases[2]}));
  warehouse->InitializeView(run.views.front());

  sim.ScheduleAt(0, [&] { sources[1]->ApplyInsert(IntTuple({3, 5})); });
  sim.ScheduleAt(400, [&] { sources[2]->ApplyDelete(IntTuple({7, 8})); });
  sim.ScheduleAt(500, [&] { sources[0]->ApplyDelete(IntTuple({2, 3})); });
  sim.Run();

  // Site names by relation index, as the timeline names relations.
  run.timeline = RenderTimeline(
      trace.messages(), {{0, "WH"}, {1, "R0"}, {2, "R1"}, {3, "R2"}},
      *warehouse);
  for (const InstallRecord& install : warehouse->install_log()) {
    run.views.push_back(install.view_after);
  }
  run.queries = network.stats().Of(MessageClass::kQueryRequest).messages;
  run.answers = network.stats().Of(MessageClass::kQueryAnswer).messages;
  std::vector<const StateLog*> logs;
  for (const auto& source : sources) logs.push_back(&source->log());
  const ConsistencyReport report = CheckConsistency(view, logs, *warehouse);
  run.consistency = report.level;
  if (!report.final_state_correct) {
    artifact->failures.push_back(
        "SWEEP diverged from ground truth on Figure 5's example");
  }
  return run;
}

}  // namespace

std::string PaperArtifact::Render() const {
  std::string out = caption;
  for (const PaperTable& table : tables) {
    TablePrinter printer(table.headers);
    for (const std::vector<std::string>& row : table.rows) {
      if (row.empty()) {
        printer.AddSeparator();
      } else {
        printer.AddRow(row);
      }
    }
    out += table.title + printer.Render() + "\n";
  }
  return out + text;
}

// T1: every Table 1 column measured over n in {2,4,6,8} and two seeds.
PaperArtifact Table1Comparison() {
  PaperArtifact a;
  a.caption =
      "Table 1 — comparison of view maintenance algorithms (measured).\n"
      "Workloads: n in {2,4,6,8} sources, 24 txns each, jittered "
      "latency.\n\n";
  PaperTable table{"",
                   {"Algorithm", "Architecture", "Consistency (paper)",
                    "Consistency (measured)", "Msg cost (paper)",
                    "msgs/upd n=2", "msgs/upd n=8", "Comments"},
                   {}};
  for (Algorithm algorithm : AllAlgorithms()) {
    // The weakest level any run reached, msgs/update at the smallest and
    // largest topology (seed 1), and counters summed over every run.
    ConsistencyLevel weakest = ConsistencyLevel::kComplete;
    double msgs_n2 = 0;
    double msgs_n8 = 0;
    int64_t compensations = 0;
    int64_t compensating_queries = 0;
    int64_t batch_installs = 0;
    int64_t max_query_terms = 0;
    bool installed_mid_stream = false;
    for (int n = 2; n <= 8; n += 2) {
      for (uint64_t seed : {1u, 2u}) {
        ScenarioConfig config = Chain(algorithm, n, 12, 5, 24, 2200,
                                      LatencyModel::Jittered(700, 500));
        config.chain.seed = seed;
        config.workload.seed = seed + 7;
        config.network_seed = seed;
        const RunResult r = Run(config, &a);
        weakest = std::min(weakest, r.consistency.level);
        if (seed == 1 && n == 2) msgs_n2 = r.maintenance_msgs_per_update;
        if (seed == 1 && n == 8) msgs_n8 = r.maintenance_msgs_per_update;
        compensations += r.compensations;
        compensating_queries += r.compensating_queries;
        batch_installs += r.batch_installs;
        max_query_terms = std::max(max_query_terms, r.max_query_terms);
        if (r.first_install_time > 0 &&
            r.first_install_time < r.last_arrival_time) {
          installed_mid_stream = true;
        }
      }
    }

    std::vector<std::string> comments;
    if (compensations > 0) comments.push_back("local compensation");
    if (compensating_queries > 0) comments.push_back("remote compensation");
    if (max_query_terms > 1) {
      comments.push_back("query grows to " + Int(max_query_terms) + " terms");
    }
    if (batch_installs > 0 && !installed_mid_stream) {
      comments.push_back("requires quiescence (observed)");
    }
    if (algorithm == Algorithm::kStrobe ||
        algorithm == Algorithm::kCStrobe) {
      comments.push_back("unique key assumption");
    }
    const ConsistencyLevel promised = PromisedConsistency(algorithm);
    table.rows.push_back({
        AlgorithmName(algorithm),
        RequiresSingleSource(algorithm) ? "Centralized" : "Distributed",
        ConsistencyLevelName(promised),
        ConsistencyLevelName(weakest),
        PromisedMessageCost(algorithm),
        Fixed1(msgs_n2),
        Fixed1(msgs_n8),
        comments.empty() ? "-" : Join(comments, "; "),
    });
    Claim(weakest == promised,
          StrFormat("%s measured %s, Table 1 promises %s",
                    AlgorithmName(algorithm), ConsistencyLevelName(weakest),
                    ConsistencyLevelName(promised)),
          &a);
  }
  a.tables.push_back(std::move(table));
  a.text =
      "Reading guide: SWEEP's and Strobe's msgs/update grow linearly in "
      "n\n(2(n-1) for SWEEP); ECA's stays constant (single site); "
      "C-Strobe's\nexceeds 2(n-1) by its compensating queries; Nested "
      "SWEEP amortizes\nbelow SWEEP whenever updates interfere. "
      "Consistency as measured by\nthe replay checker matches the "
      "paper's column for every algorithm.\n";
  return a;
}

// F2: the Section 5.2 run as a space-time message trace.
PaperArtifact Figure2Timeline() {
  PaperArtifact a;
  const PaperExampleRun run = RunPaperExample(&a);
  a.caption =
      "Figure 2 — on-line incremental view computation, traced.\n"
      "System: WH = warehouse, R0..R2 = sources (0-based relation\n"
      "indices); fixed one-way latency\n"
      "1000 ticks. Scenario: the Section 5.2 concurrent updates.\n\n";
  a.text = StrFormat(
      "%s\n"
      "What to look for (the paper's FIFO argument, live):\n"
      "  * WH gets 'update u1 of R2' and 'update u2 of R0' BEFORE it\n"
      "    gets the answers those updates contaminated — so both error\n"
      "    terms were subtracted locally, no compensating query appears\n"
      "    anywhere in the trace;\n"
      "  * the sweep for each update is exactly (n-1) query/answer\n"
      "    round trips, left chain then right chain;\n"
      "  * every INSTALL line is a Figure 5 state, in delivery order.\n"
      "Measured consistency: %s\n",
      run.timeline.c_str(), ConsistencyLevelName(run.consistency));
  Claim(run.consistency == ConsistencyLevel::kComplete,
        "SWEEP's Figure 2 run is not completely consistent", &a);
  return a;
}

// F5: the warehouse state after each update of Figure 5, against the
// paper's column.
PaperArtifact Figure5Example() {
  PaperArtifact a;
  const PaperExampleRun run = RunPaperExample(&a);
  const ViewDef view = PaperView();
  const Schema& schema = view.view_schema();
  // The paper's warehouse column (counts in brackets).
  const std::vector<Relation> paper = {
      Relation::OfInts(schema, {{7, 8}, {7, 8}}),
      Relation::OfInts(schema, {{5, 6}, {5, 6}, {7, 8}, {7, 8}}),
      Relation::OfInts(schema, {{5, 6}, {5, 6}}),
      Relation::OfInts(schema, {{5, 6}}),
  };
  const char* events[] = {"Initial State", "dR2 = +(3,5) (insert)",
                          "dR3 = -(7,8) (delete)", "dR1 = -(2,3) (delete)"};
  a.caption =
      "Figure 5 — warehouse state after each update, with the three\n"
      "updates running concurrently under SWEEP:\n\n";
  PaperTable table{
      "",
      {"Event", "Warehouse V (paper)", "Warehouse V (measured)", "Match"},
      {}};
  bool reproduced = run.views.size() == paper.size();
  for (size_t i = 0; i < run.views.size() && i < paper.size(); ++i) {
    const bool match = run.views[i] == paper[i];
    reproduced = reproduced && match;
    table.rows.push_back({events[i], paper[i].ToDisplayString(),
                          run.views[i].ToDisplayString(),
                          match ? "yes" : "NO"});
  }
  a.tables.push_back(std::move(table));
  a.text = StrFormat(
      "Consistency: %s; maintenance messages: %lld queries, %lld "
      "answers\nFigure 5 reproduced: %s\n",
      ConsistencyLevelName(run.consistency),
      static_cast<long long>(run.queries),
      static_cast<long long>(run.answers), reproduced ? "YES" : "NO");
  Claim(reproduced && run.consistency == ConsistencyLevel::kComplete,
        "Figure 5 not reproduced", &a);
  return a;
}

// E1: maintenance messages per update against the number of sources, with
// updates far apart and with updates racing each other's sweeps.
PaperArtifact MessageComplexity() {
  PaperArtifact a;
  const std::vector<Algorithm> algorithms = {
      Algorithm::kSweep, Algorithm::kNestedSweep, Algorithm::kStrobe,
      Algorithm::kCStrobe, Algorithm::kEca};
  for (bool concurrent : {false, true}) {
    PaperTable table{
        StrFormat("Maintenance messages per update vs. number of sources "
                  "n\n(%s updates; 2(n-1) is SWEEP's analytical cost):\n\n",
                  concurrent ? "CONCURRENT" : "sequential, non-interfering"),
        {"n", "2(n-1)"},
        {}};
    for (Algorithm algorithm : algorithms) {
      table.headers.push_back(AlgorithmName(algorithm));
    }
    for (int n : {2, 3, 4, 6, 8, 10, 12}) {
      std::vector<std::string> row = {StrFormat("%d", n),
                                      StrFormat("%d", 2 * (n - 1))};
      for (Algorithm algorithm : algorithms) {
        // Unit join fan-out keeps partial deltas small even across 12
        // relations, so this measures message counts, not payloads.
        const RunResult r =
            Run(Chain(algorithm, n, 12, 12, 24, concurrent ? 1500 : 60000,
                      LatencyModel::Fixed(1000)),
                &a);
        row.push_back(Fixed1(r.maintenance_msgs_per_update));
        if (algorithm == Algorithm::kSweep) ClaimSweepCost(r, n, &a);
      }
      table.rows.push_back(std::move(row));
    }
    a.tables.push_back(std::move(table));
  }
  a.text =
      "Shape check (paper): SWEEP tracks 2(n-1) exactly in both "
      "regimes;\nNested SWEEP drops below SWEEP once updates interfere "
      "(amortization);\nC-Strobe exceeds SWEEP under interference "
      "(compensating queries);\nECA stays flat at 2 (one query + one "
      "answer per update, single site).\n";
  return a;
}

// E2: C-Strobe's compensating queries against the concurrency level K,
// swept by shrinking the inter-arrival time against a fixed round trip.
PaperArtifact ConcurrencyBlowup() {
  PaperArtifact a;
  const SimTime kLatency = 2000;
  a.caption =
      "Compensation blow-up vs. concurrency level K (interfering updates\n"
      "per query round trip). Fixed one-way latency 2000 ticks; K swept\n"
      "by shrinking the mean update inter-arrival time.\n\n";
  for (int n : {3, 4, 5}) {
    PaperTable table{StrFormat("n = %d sources:\n", n),
                     {"~K", "SWEEP msgs/upd", "NestedSWEEP msgs/upd",
                      "C-Strobe msgs/upd", "C-Strobe comp. queries"},
                     {}};
    int64_t previous_queries = 0;
    for (double interarrival : {40000.0, 8000.0, 4000.0, 2000.0, 1000.0}) {
      auto run = [&](Algorithm algorithm) {
        ScenarioConfig config = Chain(algorithm, n, 14, 14, 30, interarrival,
                                      LatencyModel::Fixed(kLatency));
        // Interference needs deletes racing insert queries.
        config.workload.insert_fraction = 0.55;
        return Run(config, &a);
      };
      const RunResult sweep = run(Algorithm::kSweep);
      const RunResult cstrobe = run(Algorithm::kCStrobe);
      const RunResult nested = run(Algorithm::kNestedSweep);
      table.rows.push_back(
          {Fixed1(2.0 * static_cast<double>(kLatency) / interarrival),
           Fixed1(sweep.maintenance_msgs_per_update),
           Fixed1(nested.maintenance_msgs_per_update),
           Fixed1(cstrobe.maintenance_msgs_per_update),
           Int(cstrobe.compensating_queries)});
      ClaimSweepCost(sweep, n, &a);
      Claim(cstrobe.compensating_queries >= previous_queries,
            StrFormat("C-Strobe's compensating queries fell as K grew "
                      "(n=%d, inter-arrival %.0f)",
                      n, interarrival),
            &a);
      previous_queries = cstrobe.compensating_queries;
    }
    a.tables.push_back(std::move(table));
  }
  a.text =
      "Shape check (paper): SWEEP's column is constant at 2(n-1) — "
      "local\ncompensation is free of messages. C-Strobe's compensating "
      "queries\nrise sharply with K and with n (the K^(n-2) mechanism); "
      "Nested SWEEP\nfalls *below* SWEEP as K grows (batch "
      "amortization).\n";
  return a;
}

// E3: ECA's query size against a burst of B updates arriving within one
// query round trip at its single source.
PaperArtifact EcaQuerySize() {
  PaperArtifact a;
  a.caption =
      "ECA query size vs. number of interfering updates (burst of B\n"
      "updates arriving within one query round trip; 3 relations at one\n"
      "source).\n\n";
  PaperTable table{"",
                   {"Burst B", "ECA max terms/query", "ECA total terms",
                    "ECA terms/update", "ECA msgs/update",
                    "SWEEP msgs/update"},
                   {}};
  double previous_terms = 0;
  for (int burst : {1, 2, 3, 4, 6, 8, 10}) {
    auto run = [&](Algorithm algorithm) {
      // Near-simultaneous updates against long round trips.
      ScenarioConfig config =
          Chain(algorithm, 3, 10, 4, burst, 150, LatencyModel::Fixed(5000));
      config.workload.insert_fraction = 0.7;
      return Run(config, &a);
    };
    const RunResult eca = run(Algorithm::kEca);
    const RunResult sweep = run(Algorithm::kSweep);
    const double terms_per_update =
        static_cast<double>(eca.total_query_terms) / burst;
    table.rows.push_back(
        {StrFormat("%d", burst), Int(eca.max_query_terms),
         Int(eca.total_query_terms), Fixed1(terms_per_update),
         Fixed1(eca.maintenance_msgs_per_update),
         Fixed1(sweep.maintenance_msgs_per_update)});
    ClaimSweepCost(sweep, 3, &a);
    Claim(eca.maintenance_msgs_per_update == 2.0,
          StrFormat("ECA sent %g msgs/update at B=%d, not 2",
                    eca.maintenance_msgs_per_update, burst),
          &a);
    Claim(terms_per_update >= previous_terms,
          StrFormat("ECA's terms per update fell at B=%d", burst), &a);
    previous_terms = terms_per_update;
  }
  a.tables.push_back(std::move(table));
  a.text =
      "Shape check (paper): ECA's message *count* per update is constant\n"
      "(one query + one answer) but the query *size* (number of join\n"
      "terms) grows superlinearly with the interference burst — the\n"
      "offset terms of Section 3's Q2 formulation compounding. SWEEP's\n"
      "column is flat: compensation never leaves the warehouse.\n";
  return a;
}

// E4: installs, first install and staleness under a stream of 40
// inserts, at three inter-arrival times.
PaperArtifact Staleness() {
  PaperArtifact a;
  a.caption =
      "View freshness under an update stream (40 inserts, one-way latency\n"
      "800 ticks). 'First install vs stream end' says whether the view\n"
      "first refreshed before the last update arrived; staleness is the\n"
      "time integral of delivered-but-unincorporated updates.\n\n";
  for (double interarrival : {6000.0, 2000.0, 400.0}) {
    PaperTable table{
        StrFormat("Mean inter-arrival %.0f ticks:\n", interarrival),
        {"Algorithm", "Installs", "First install vs stream end",
         "Staleness", "Mean lag/update"},
        {}};
    for (Algorithm algorithm :
         {Algorithm::kSweep, Algorithm::kNestedSweep, Algorithm::kStrobe,
          Algorithm::kEca}) {
      ScenarioConfig config = Chain(algorithm, 3, 12, 5, 40, interarrival,
                                    LatencyModel::Fixed(800));
      config.workload.insert_fraction = 1.0;  // every update opens a query
      const RunResult r = Run(config, &a);
      const bool after = r.first_install_time >= r.last_arrival_time;
      table.rows.push_back(
          {r.algorithm_name, Int(r.installs),
           r.first_install_time == 0 ? "never" : (after ? "after" : "during"),
           Sci(r.staleness_integral), Ticks(r.mean_incorporation_delay)});
      // Section 3: without a quiescent period Strobe and ECA never
      // refresh the view.
      if (interarrival == 400.0 && (algorithm == Algorithm::kStrobe ||
                                    algorithm == Algorithm::kEca)) {
        Claim(r.first_install_time > 0 && after,
              std::string(AlgorithmName(algorithm)) +
                  " did not first install after the stream ended",
              &a);
      }
    }
    a.tables.push_back(std::move(table));
  }
  a.text =
      "Shape check (paper): at inter-arrival 400 Strobe and ECA refresh\n"
      "the view only AFTER the stream ends (quiescence requirement);\n"
      "SWEEP refreshes throughout. Note the honest caveat: sequential\n"
      "SWEEP's service rate is one update per sweep round trip, so on a\n"
      "saturating stream its backlog (and staleness) grows too — the\n"
      "pipelining optimization of Section 5.3 is the paper's own answer;\n"
      "Nested SWEEP's batching shows the amortized effect.\n";
  return a;
}

// E5: Nested SWEEP's amortization over a batch of mutually concurrent
// updates, and its forced-termination budget.
PaperArtifact NestedAmortization() {
  PaperArtifact a;
  auto run = [&](int batch, int depth_budget) {
    // Every update arrives inside one sweep.
    ScenarioConfig config = Chain(Algorithm::kNestedSweep, 4, 12, 5, batch,
                                  200, LatencyModel::Fixed(4000));
    config.warehouse.nested_max_recursion_depth = depth_budget;
    return Run(config, &a);
  };
  a.caption =
      "Nested SWEEP amortization: B mutually concurrent updates (4 "
      "sources,\nround trip >> inter-arrival). SWEEP would pay 2(n-1)=6 "
      "msgs per\nupdate; Nested SWEEP shares one composite sweep.\n\n";
  PaperTable amortization{"",
                          {"Batch B", "Installs", "Nested calls",
                           "msgs/update", "SWEEP msgs/update (ref)"},
                          {}};
  for (int batch : {1, 2, 4, 6, 8, 12}) {
    const RunResult r = run(batch, /*depth_budget=*/64);
    amortization.rows.push_back({StrFormat("%d", batch), Int(r.installs),
                                 Int(r.nested_calls),
                                 Fixed1(r.maintenance_msgs_per_update),
                                 "6.0"});
  }
  PaperTable budgets{
      "Forced-termination switch: the same 12-update batch under "
      "shrinking\nrecursion budgets (budget 1 = plain SWEEP):\n\n",
      {"Depth budget", "Installs", "Nested calls", "Forced deferrals",
       "msgs/update", "Consistency (measured)"},
      {}};
  for (int depth : {64, 8, 4, 2, 1}) {
    const RunResult r = run(12, depth);
    const ConsistencyLevel level = r.consistency.level;
    budgets.rows.push_back({StrFormat("%d", depth), Int(r.installs),
                            Int(r.nested_calls), Int(r.forced_deferrals),
                            Fixed1(r.maintenance_msgs_per_update),
                            ConsistencyLevelName(level)});
    // Section 6: the switch is safe at every budget, and budget 1 is
    // plain SWEEP.
    const ConsistencyLevel floor = depth == 1 ? ConsistencyLevel::kComplete
                                              : ConsistencyLevel::kStrong;
    Claim(level >= floor,
          StrFormat("Nested SWEEP was only %s at depth budget %d",
                    ConsistencyLevelName(level), depth),
          &a);
  }
  a.tables.push_back(std::move(amortization));
  a.tables.push_back(std::move(budgets));
  a.text =
      "Shape check (paper): msgs/update decreases toward ~(one sweep)/B "
      "as\nthe batch grows; with budget 1 Nested SWEEP degenerates to "
      "SWEEP\n(installs == updates, complete consistency, 6 "
      "msgs/update); every\nbudget in between keeps strong consistency "
      "— the termination switch\nis safe.\n";
  return a;
}

// A1: SWEEP with and without local compensation at rising interference.
PaperArtifact AblationCompensation() {
  PaperArtifact a;
  a.caption =
      "Ablation: SWEEP with and without local compensation (3 sources,\n"
      "24 txns, one-way latency 2000). Error tuples = distinct tuples by\n"
      "which the final view differs from ground truth.\n\n";
  PaperTable table{"",
                   {"Interference", "Compensation", "Consistency",
                    "Final correct", "Error tuples", "msgs/update"},
                   {}};
  for (double interarrival : {40000.0, 6000.0, 2000.0, 800.0}) {
    const char* regime = interarrival > 20000  ? "rare"
                         : interarrival > 4000 ? "light"
                         : interarrival > 1500 ? "moderate"
                                               : "heavy";
    for (bool compensation : {true, false}) {
      ScenarioConfig config = Chain(Algorithm::kSweep, 3, 12, 5, 24,
                                    interarrival, LatencyModel::Fixed(2000));
      config.chain.seed = 5;
      config.workload.seed = 8;
      config.warehouse.sweep_local_compensation = compensation;
      // Without compensation the view is meant to diverge; the claim
      // below requires it to.
      const RunResult r =
          compensation ? Run(config, &a) : RunScenario(config);
      Relation diff = r.final_view;
      diff.MergeNegated(r.expected_view);
      const ConsistencyLevel level = r.consistency.level;
      table.rows.push_back(
          {regime, compensation ? "ON" : "OFF", ConsistencyLevelName(level),
           r.consistency.final_state_correct ? "yes" : "NO",
           Int(static_cast<int64_t>(diff.DistinctSize())),
           Fixed1(r.maintenance_msgs_per_update)});
      if (compensation) {
        Claim(level == ConsistencyLevel::kComplete &&
                  r.consistency.final_state_correct,
              StrFormat("SWEEP was %s with compensation on (%s)",
                        ConsistencyLevelName(level), regime),
              &a);
      } else {
        Claim(level == ConsistencyLevel::kInconsistent,
              StrFormat("SWEEP was %s with compensation off (%s)",
                        ConsistencyLevelName(level), regime),
              &a);
      }
    }
    if (interarrival > 800.0) table.rows.emplace_back();
  }
  a.tables.push_back(std::move(table));
  a.text =
      "Reading: error terms exist exactly when updates race in-flight\n"
      "queries (even the sparse regime sees a couple). Where they do,\n"
      "compensation-OFF corrupts the view (and nothing signals\n"
      "it), while compensation-ON stays completely consistent at the\n"
      "same 2(n-1) messages: the compensation is free of communication,\n"
      "exactly the paper's claim.\n";
  return a;
}

// A2: Section 5.3's parallel sweeps (latency) and pipelined ViewChanges
// (staleness under a saturating stream).
PaperArtifact SweepVariants() {
  PaperArtifact a;
  auto run = [&](Algorithm algorithm, int n, double interarrival,
                 int inflight) {
    ScenarioConfig config = Chain(algorithm, n, 12, 12, 30, interarrival,
                                  LatencyModel::Fixed(1000));
    config.warehouse.pipeline_max_inflight = inflight;
    return Run(config, &a);
  };
  PaperTable latency{
      "Part 1 — parallel directional sweeps: per-update latency (mean\n"
      "incorporation delay) for sparse updates, n sweep. Messages are\n"
      "identical; only the critical path shrinks from (n-1) to\n"
      "ceil((n-1)/2)-ish round trips for mid-chain updates.\n\n",
      {"n", "SWEEP mean lag", "ParallelSWEEP mean lag", "SWEEP msgs/upd",
       "Parallel msgs/upd", "Consistency (both)"},
      {}};
  for (int n : {3, 5, 7, 9}) {
    const RunResult seq = run(Algorithm::kSweep, n, 60000, 1);
    const RunResult par = run(Algorithm::kParallelSweep, n, 60000, 1);
    latency.rows.push_back(
        {StrFormat("%d", n), Ticks(seq.mean_incorporation_delay),
         Ticks(par.mean_incorporation_delay),
         Fixed1(seq.maintenance_msgs_per_update),
         Fixed1(par.maintenance_msgs_per_update),
         StrFormat("%s / %s", ConsistencyLevelName(seq.consistency.level),
                   ConsistencyLevelName(par.consistency.level))});
  }
  PaperTable pipeline{
      "Part 2 — pipelined ViewChanges under a saturating stream (4\n"
      "sources, inter-arrival 700 << per-update sweep time 6000):\n"
      "sequential SWEEP's backlog grows; the pipeline keeps complete\n"
      "consistency while overlapping sweeps.\n\n",
      {"Algorithm / inflight", "Staleness", "Mean lag", "Finish time",
       "msgs/update", "Consistency"},
      {}};
  // Sequential SWEEP keeps one ViewChange in flight.
  double previous_staleness = 0;
  for (int inflight : {1, 2, 4, 16}) {
    const RunResult r =
        inflight == 1 ? run(Algorithm::kSweep, 4, 700, 1)
                      : run(Algorithm::kPipelinedSweep, 4, 700, inflight);
    pipeline.rows.push_back(
        {inflight == 1 ? "SWEEP (sequential)"
                       : StrFormat("PipelinedSWEEP x%d", inflight),
         Sci(r.staleness_integral), Ticks(r.mean_incorporation_delay),
         Int(r.finish_time), Fixed1(r.maintenance_msgs_per_update),
         ConsistencyLevelName(r.consistency.level)});
    Claim(inflight == 1 || r.staleness_integral < previous_staleness,
          StrFormat("staleness did not fall at in-flight limit %d", inflight),
          &a);
    previous_staleness = r.staleness_integral;
  }
  a.tables.push_back(std::move(latency));
  a.tables.push_back(std::move(pipeline));
  a.text =
      "Reading: pipelining recovers the staleness SWEEP loses to its\n"
      "one-update-at-a-time service loop — at identical message cost and\n"
      "still complete consistency — which is precisely why the paper\n"
      "lists it as the optimization worth the added warehouse "
      "complexity.\n";
  return a;
}

// A3: payload and lag under channels that charge per tuple shipped.
PaperArtifact BandwidthCost() {
  PaperArtifact a;
  a.caption =
      "Maintenance cost under bandwidth-limited channels (one-way delay\n"
      "= 500 + per_tuple x payload; 3 sources of 48 tuples, sparse\n"
      "updates so only payload differs).\n\n";
  for (SimTime per_tuple : {0, 20, 100}) {
    PaperTable table{StrFormat("per-tuple cost = %lld ticks:\n",
                               static_cast<long long>(per_tuple)),
                     {"Algorithm", "Payload (tuples)", "Mean lag",
                      "Finish time", "Consistency"},
                     {}};
    for (Algorithm algorithm :
         {Algorithm::kSweep, Algorithm::kParallelSweep, Algorithm::kCStrobe,
          Algorithm::kRecompute}) {
      // Unit join fan-out over big bases.
      const RunResult r =
          Run(Chain(algorithm, 3, 48, 48, 16, 25000,
                    LatencyModel::Bandwidth(500, 0, per_tuple)),
              &a);
      table.rows.push_back(
          {r.algorithm_name, Int(r.net.TotalPayload()),
           Ticks(r.mean_incorporation_delay), Int(r.finish_time),
           ConsistencyLevelName(r.consistency.level)});
    }
    a.tables.push_back(std::move(table));
  }
  a.text =
      "Reading: with free bandwidth (0) all lags are similar; as the\n"
      "per-tuple cost grows, Recompute's full-relation snapshots dominate\n"
      "its lag while SWEEP's delta-sized payloads barely move — the\n"
      "communication end of the intro's spectrum, quantified. Parallel\n"
      "SWEEP pays the same bytes as SWEEP but hides half the latency.\n";
  return a;
}

}  // namespace sweepmv
