// The ingest workloads: seeded client transactions flowing through a
// SWEEP deployment that the benchmark wires itself from the library's
// public classes, so that set-up, the timed Simulator::Run and the
// correctness check are separate phases (RunScenario does all three
// inside one call).

#ifndef SWEEPBENCH_INGEST_H_
#define SWEEPBENCH_INGEST_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace sweepbench {

bool IsIngestWorkload(const std::string& name);

// Runs the named workload on input sets generated from options.seed
// (smoke size shrinks only the transaction counts).
WorkloadResult RunIngest(const std::string& name, const RunOptions& options);

// Runs the workload's smoke-size inputs for `seed` through the library's
// own harness (RunScenario or RunShardedScenario) and through the
// benchmark's deployment, and returns a description of every difference
// in final view, installs, network statistics and compensations ("" when
// they agree).
std::string CompareWithHarness(const std::string& name, uint64_t seed);

}  // namespace sweepbench

#endif  // SWEEPBENCH_INGEST_H_
