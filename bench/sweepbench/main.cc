// sweepbench: one seeded workload per invocation, measured end to end
// (--trace 0) or split by layer (--trace 1).
//
//   sweepbench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--trace-dir DIR]
//   sweepbench --check-harness --workload NAME --seed N
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by diagnostic lines, among them "deterministic: ..." (every
// schedule-determined output, for traced/untraced comparison) and
// "samples: {...}" (the per-repetition samples behind the timed
// metrics). Exits 1 when an output is incorrect or the traced run's
// layer self times miss its total by more than 5%, 2 on bad arguments.
//
// --check-harness runs an ingest workload's inputs through RunScenario /
// RunShardedScenario and through the benchmark's own deployment and
// exits 1 if final view, installs, network statistics or compensations
// differ. bench/sweepbench/run.py builds this binary and drives both.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "explore.h"
#include "ingest.h"

using namespace sweepbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric a run reports, in BENCHMARK.json order. A workload that
// bypasses a layer reports 0 for it.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_vs_ref", "ops/ref"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"wall.throughput_per_s", "1/s"},
    {"wall.reference_s", "s"},
    {"sim.events", "count"},
    {"sim.self_frac", "frac"},
    {"net.tuples_per_update", "ratio"},
    {"net.retransmissions", "count"},
    {"net.acks", "count"},
    {"net.drops", "count"},
    {"source.query_frac", "frac"},
    {"source.commit_frac", "frac"},
    {"storage.index_probes", "count"},
    {"storage.matches_per_probe", "ratio"},
    {"storage.scan_fallbacks", "count"},
    {"core.update_frac", "frac"},
    {"core.answer_frac", "frac"},
    {"core.compensations_per_update", "ratio"},
    {"core.queue_depth_mean", "count"},
    {"core.queue_depth_max", "count"},
    {"core.foreign_discards", "count"},
    {"ckpt.count", "count"},
    {"ckpt.bytes_max", "bytes"},
    {"ckpt.serialize_ms_final", "ms"},
    {"ckpt.recover_frac", "frac"},
    {"ckpt.wal_replayed", "count"},
    {"batch.submit_frac", "frac"},
    {"batch.txns_per_commit", "ratio"},
    {"batch.noop_batches", "count"},
    {"router.frac", "frac"},
    {"router.updates_broadcast", "count"},
    {"workload.gen_s", "s"},
    {"consistency.check_s", "s"},
    {"ingest.staleness_p50_ticks", "ticks"},
    {"ingest.staleness_p99_ticks", "ticks"},
    {"ingest.msgs_per_update", "ratio"},
    {"verify.executions", "count"},
    {"verify.dedup_hits", "count"},
    {"verify.dedup_hit_rate", "ratio"},
    {"verify.undo_per_rollback", "ratio"},
    {"verify.anchor_snapshots", "count"},
    {"verify.sleep_pruned", "count"},
    {"verify.refined_grants", "count"},
    {"verify.construct_frac", "frac"},
    {"verify.step_frac", "frac"},
    {"verify.hash_frac", "frac"},
    {"verify.save_restore_frac", "frac"},
    {"verify.check_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "%s\nusage: sweepbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-dir DIR]\n"
               "       sweepbench --check-harness --workload NAME --seed N\n"
               "workloads: ingest_contended ingest_durable_lossy "
               "ingest_batched_sharded explore_certify explore_naive\n",
               error);
  return 2;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Number(values[i]);
  }
  return out + "]";
}

// Orders the workload's metrics as the spec lists them, fills bypassed
// layers with 0, and rejects names the spec does not know (a typo would
// otherwise silently drop a metric). Returns the JSON object, or "" after
// printing the offending name.
std::string MetricsJson(const WorkloadResult& result,
                        const std::vector<MetricSpec>& spec) {
  std::map<std::string, double> values;
  for (const Metric& m : result.metrics) {
    bool known = false;
    for (const MetricSpec& s : spec) {
      known = known || (m.name == s.name && m.unit == s.unit);
    }
    if (!known || values.count(m.name) != 0) {
      std::fprintf(stderr, "metric %s [%s] is not in the metric list\n",
                   m.name.c_str(), m.unit.c_str());
      return "";
    }
    values[m.name] = m.value;
  }
  std::string out = "{";
  for (size_t i = 0; i < spec.size(); ++i) {
    const auto it = values.find(spec[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    out += (i ? ", " : "") + std::string("\"") + spec[i].name +
           "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
           spec[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool check_harness = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--check-harness") {
      check_harness = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--trace-dir") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        workload = v;
      } else if (arg == "--trace-dir") {
        options.trace_dir = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        have_seed = *end == '\0';
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        have_seconds = *end == '\0' && options.seconds >= 0.0;
      } else {
        const std::string t = v;
        have_trace = t == "0" || t == "1";
        options.trace = t == "1";
      }
    } else {
      return Usage(("unknown argument: " + arg).c_str());
    }
  }
  const bool ingest = IsIngestWorkload(workload);
  if (!ingest && !IsExploreWorkload(workload)) {
    return Usage(("unknown workload: " + workload).c_str());
  }
  if (!have_seed) return Usage("--seed N is required");

  if (check_harness) {
    if (!ingest) return Usage("--check-harness takes an ingest workload");
    const std::string diff = CompareWithHarness(workload, options.seed);
    if (!diff.empty()) {
      std::printf("harness mismatch on %s: %s\n", workload.c_str(),
                  diff.c_str());
      return 1;
    }
    std::printf("harness match on %s\n", workload.c_str());
    return 0;
  }
  if (!have_seconds || !have_trace) {
    return Usage("--seconds S and --trace 0|1 are required");
  }

  const WorkloadResult result = ingest ? RunIngest(workload, options)
                                       : RunExplore(workload, options);

  const std::string metrics =
      MetricsJson(result, options.trace ? kPerLayer : kEndToEnd);
  if (metrics.empty()) return 1;
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [name, values] : result.samples) {
    std::printf("%s\n", DescribeSamples(name, values).c_str());
  }
  std::string samples = "{";
  for (size_t i = 0; i < result.samples.size(); ++i) {
    samples += (i ? ", \"" : "\"") + result.samples[i].first +
               "\": " + JsonArray(result.samples[i].second);
  }
  std::printf("samples: %s}\n", samples.c_str());
  std::printf("deterministic: %s\n", result.deterministic.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct && !result.trace_check_failed ? 0 : 1;
}
