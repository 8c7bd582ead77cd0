// Interactive experiment explorer: run any algorithm on any generated
// topology/workload from the command line and get the full report —
// traffic, consistency classification, staleness — plus an optional
// message-level trace.
//
//   $ ./explore_cli --algo=sweep --sources=5 --txns=50
//                   --interarrival=1500 --latency=800 --jitter=400
//                   --seed=7 --relations-per-site=1 --trace
//     (one line; wrapped here for readability)
//
//   $ ./explore_cli --list        # available algorithms
//   $ ./explore_cli --help

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/str.h"
#include "common/table.h"
#include "harness/scenario.h"
#include "harness/trace.h"
#include "sim/simulator.h"
#include "source/data_source.h"

using namespace sweepmv;

namespace {

struct Flags {
  std::string algo = "sweep";
  int sources = 4;
  int txns = 30;
  double interarrival = 2000;
  long latency = 800;
  long jitter = 400;
  unsigned long seed = 7;
  int relations_per_site = 1;
  double insert_fraction = 0.6;
  int max_ops = 1;
  bool trace = false;
  bool help = false;
  bool list = false;
};

const std::map<std::string, Algorithm>& AlgoNames() {
  static const auto& names = *new std::map<std::string, Algorithm>{
      {"sweep", Algorithm::kSweep},
      {"nested", Algorithm::kNestedSweep},
      {"nested-sweep", Algorithm::kNestedSweep},
      {"parallel", Algorithm::kParallelSweep},
      {"parallel-sweep", Algorithm::kParallelSweep},
      {"pipelined", Algorithm::kPipelinedSweep},
      {"pipelined-sweep", Algorithm::kPipelinedSweep},
      {"strobe", Algorithm::kStrobe},
      {"cstrobe", Algorithm::kCStrobe},
      {"c-strobe", Algorithm::kCStrobe},
      {"eca", Algorithm::kEca},
      {"recompute", Algorithm::kRecompute},
  };
  return names;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--help") == 0) {
      flags->help = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      flags->list = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      flags->trace = true;
    } else if (ParseFlag(arg, "algo", &value)) {
      flags->algo = value;
    } else if (ParseFlag(arg, "sources", &value)) {
      flags->sources = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "txns", &value)) {
      flags->txns = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "interarrival", &value)) {
      flags->interarrival = std::atof(value.c_str());
    } else if (ParseFlag(arg, "latency", &value)) {
      flags->latency = std::atol(value.c_str());
    } else if (ParseFlag(arg, "jitter", &value)) {
      flags->jitter = std::atol(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      flags->seed = std::strtoul(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "relations-per-site", &value)) {
      flags->relations_per_site = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "insert-fraction", &value)) {
      flags->insert_fraction = std::atof(value.c_str());
    } else if (ParseFlag(arg, "max-ops", &value)) {
      flags->max_ops = std::atoi(value.c_str());
    } else {
      *error = StrFormat("unknown flag: %s", arg);
      return false;
    }
  }
  return true;
}

void PrintHelp() {
  std::printf(
      "explore_cli — run a view-maintenance scenario and report.\n\n"
      "  --algo=NAME             sweep | nested | parallel | pipelined |\n"
      "                          strobe | cstrobe | eca | recompute\n"
      "  --sources=N             relations in the view chain (default 4)\n"
      "  --txns=N                source-local transactions (default 30)\n"
      "  --interarrival=T        mean update inter-arrival, ticks\n"
      "  --latency=T --jitter=T  one-way channel delay model\n"
      "  --seed=S                workload/schema seed\n"
      "  --relations-per-site=K  co-host K chain relations per source\n"
      "  --insert-fraction=F     insert probability (default 0.6)\n"
      "  --max-ops=K             ops per transaction, uniform 1..K\n"
      "  --trace                 print the space-time message trace\n"
      "  --list                  list algorithms and their promises\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    PrintHelp();
    return 2;
  }
  if (flags.help) {
    PrintHelp();
    return 0;
  }
  if (flags.list) {
    TablePrinter table({"Name", "Algorithm", "Promised consistency",
                        "Promised msg cost"});
    for (const auto& [name, algo] : AlgoNames()) {
      table.AddRow({name, AlgorithmName(algo),
                    ConsistencyLevelName(PromisedConsistency(algo)),
                    PromisedMessageCost(algo)});
    }
    std::printf("%s", table.Render().c_str());
    return 0;
  }

  auto algo_it = AlgoNames().find(flags.algo);
  if (algo_it == AlgoNames().end()) {
    std::fprintf(stderr, "unknown algorithm '%s' (try --list)\n",
                 flags.algo.c_str());
    return 2;
  }

  ScenarioConfig config;
  config.algorithm = algo_it->second;
  config.chain.num_relations = flags.sources;
  config.chain.initial_tuples = 16;
  config.chain.join_domain = 8;
  config.chain.seed = flags.seed;
  config.workload.total_txns = flags.txns;
  config.workload.mean_interarrival = flags.interarrival;
  config.workload.insert_fraction = flags.insert_fraction;
  config.workload.max_ops_per_txn = flags.max_ops;
  config.workload.seed = flags.seed + 1;
  config.latency = LatencyModel::Jittered(flags.latency, flags.jitter);
  config.network_seed = flags.seed + 2;
  config.relations_per_site = flags.relations_per_site;

  if (flags.trace) {
    // Tracing needs access to the network, so run the explicit form.
    ViewDef view = MakeChainView(config.chain);
    std::vector<Relation> bases = MakeInitialBases(view, config.chain);
    std::vector<ScheduledTxn> txns =
        GenerateWorkload(view, bases, config.chain, config.workload);
    // Reuse the harness for the actual run but re-run traced here: build
    // a mirrored system.
    Simulator sim;
    Network network(&sim, config.latency, config.network_seed);
    TraceRecorder trace;
    trace.Attach(&network);
    UpdateIdGenerator ids;
    std::vector<std::unique_ptr<DataSource>> sources;
    std::vector<int> sites;
    std::map<int, std::string> names{{0, "WH"}};
    for (int r = 0; r < view.num_relations(); ++r) {
      sites.push_back(r + 1);
      sources.push_back(std::make_unique<DataSource>(
          r + 1, r, bases[static_cast<size_t>(r)], &view, &network, 0,
          &ids));
      network.RegisterSite(r + 1, sources.back().get());
      names[r + 1] = StrFormat("R%d", r);
    }
    auto warehouse = MakeWarehouse(config.algorithm, 0, view, &network,
                                   sites, config.warehouse);
    network.RegisterSite(0, warehouse.get());
    std::vector<const Relation*> rels;
    for (const Relation& b : bases) rels.push_back(&b);
    warehouse->InitializeView(view.EvaluateFull(rels));
    warehouse->InitializeAuxiliary(bases);
    for (const ScheduledTxn& txn : txns) {
      DataSource* src = sources[static_cast<size_t>(txn.relation)].get();
      auto ops = txn.ops;
      sim.ScheduleAt(txn.at,
                     [src, ops]() { src->ApplyTransaction(ops); });
    }
    sim.Run();
    std::printf("%s\n",
                RenderTimeline(trace.messages(), names, *warehouse)
                    .c_str());
  }

  RunResult r = RunScenario(config);

  TablePrinter report({"Metric", "Value"});
  report.AddRow({"algorithm", r.algorithm_name});
  report.AddRow({"updates delivered",
                 StrFormat("%lld",
                           static_cast<long long>(r.updates_delivered))});
  report.AddRow(
      {"view states installed",
       StrFormat("%lld", static_cast<long long>(r.installs))});
  report.AddRow({"consistency (measured)",
                 ConsistencyLevelName(r.consistency.level)});
  report.AddRow({"final view == ground truth",
                 r.final_view == r.expected_view ? "yes" : "NO"});
  report.AddRow({"maintenance msgs/update",
                 StrFormat("%.2f", r.maintenance_msgs_per_update)});
  report.AddRow(
      {"total messages",
       StrFormat("%lld",
                 static_cast<long long>(r.net.TotalMessages()))});
  report.AddRow(
      {"payload tuples",
       StrFormat("%lld", static_cast<long long>(r.net.TotalPayload()))});
  report.AddRow({"staleness integral",
                 StrFormat("%.3g", r.staleness_integral)});
  report.AddRow({"mean incorporation delay",
                 StrFormat("%.0f", r.mean_incorporation_delay)});
  report.AddRow(
      {"finish time",
       StrFormat("%lld", static_cast<long long>(r.finish_time))});
  if (!r.consistency.detail.empty()) {
    report.AddRow({"classifier note", r.consistency.detail});
  }
  std::printf("%s", report.Render().c_str());
  return r.final_view == r.expected_view ? 0 : 1;
}
