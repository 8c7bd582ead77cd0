// Algorithm registry and warehouse factory.

#ifndef SWEEPMV_CORE_FACTORY_H_
#define SWEEPMV_CORE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

enum class Algorithm : int {
  kSweep = 0,
  kNestedSweep = 1,
  kStrobe = 2,
  kCStrobe = 3,
  kEca = 4,
  kRecompute = 5,
  // Section 5.3's optimizations, implemented as first-class variants:
  kParallelSweep = 6,   // left/right sweeps overlap; merged by join
  kPipelinedSweep = 7,  // multiple ViewChanges in flight, ordered installs
};

// The consistency levels of Section 2, ordered from weakest to strongest.
enum class ConsistencyLevel : int {
  kInconsistent = 0,
  kConvergent = 1,
  kStrong = 2,
  kComplete = 3,
};

const char* AlgorithmName(Algorithm algorithm);
const char* ConsistencyLevelName(ConsistencyLevel level);

// Every algorithm listed in Table 1 plus the recompute baseline.
std::vector<Algorithm> AllAlgorithms();

// AllAlgorithms plus the SWEEP variants of Section 5.3.
std::vector<Algorithm> AllAlgorithmVariants();

// True for algorithms designed for a single multi-relation source (ECA).
bool RequiresSingleSource(Algorithm algorithm);

// The consistency level Table 1 promises — the benches compare this
// against what the checker actually measures.
ConsistencyLevel PromisedConsistency(Algorithm algorithm);

// Table 1's "Message Cost per Update" column, verbatim.
const char* PromisedMessageCost(Algorithm algorithm);

struct WarehouseConfig {
  Warehouse::Options base;
  // Nested SWEEP's forced-termination budget (see NestedOptions).
  int nested_max_recursion_depth = 64;
  // SWEEP ablation switch (see SweepOptions) — leave true outside of the
  // ablation bench.
  bool sweep_local_compensation = true;
  // ECA ablation switch (see EcaWarehouse::EcaOptions) — with it off, ECA
  // degenerates to naive maintenance and the schedule-space explorer can
  // exhibit the classic update anomaly. Leave true in real use.
  bool eca_compensation = true;
  // Pipelined SWEEP's in-flight ViewChange cap (see PipelineOptions).
  int pipeline_max_inflight = 16;
};

std::unique_ptr<Warehouse> MakeWarehouse(Algorithm algorithm, int site_id,
                                         ViewDef view_def, Network* network,
                                         std::vector<int> source_sites,
                                         const WarehouseConfig& config);

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_FACTORY_H_
