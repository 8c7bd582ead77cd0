#include "core/factory.h"

#include "common/check.h"
#include "core/cstrobe.h"
#include "core/parallel_sweep.h"
#include "core/pipelined_sweep.h"
#include "core/eca.h"
#include "core/nested_sweep.h"
#include "core/recompute.h"
#include "core/strobe.h"
#include "core/sweep.h"

namespace sweepmv {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSweep:
      return "SWEEP";
    case Algorithm::kNestedSweep:
      return "NestedSWEEP";
    case Algorithm::kStrobe:
      return "Strobe";
    case Algorithm::kCStrobe:
      return "C-Strobe";
    case Algorithm::kEca:
      return "ECA";
    case Algorithm::kRecompute:
      return "Recompute";
    case Algorithm::kParallelSweep:
      return "ParallelSWEEP";
    case Algorithm::kPipelinedSweep:
      return "PipelinedSWEEP";
  }
  return "?";
}

const char* ConsistencyLevelName(ConsistencyLevel level) {
  switch (level) {
    case ConsistencyLevel::kInconsistent:
      return "inconsistent";
    case ConsistencyLevel::kConvergent:
      return "convergent";
    case ConsistencyLevel::kStrong:
      return "strong";
    case ConsistencyLevel::kComplete:
      return "complete";
  }
  return "?";
}

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kSweep,   Algorithm::kNestedSweep,
          Algorithm::kStrobe,  Algorithm::kCStrobe,
          Algorithm::kEca,     Algorithm::kRecompute};
}

std::vector<Algorithm> AllAlgorithmVariants() {
  std::vector<Algorithm> all = AllAlgorithms();
  all.push_back(Algorithm::kParallelSweep);
  all.push_back(Algorithm::kPipelinedSweep);
  return all;
}

bool RequiresSingleSource(Algorithm algorithm) {
  return algorithm == Algorithm::kEca;
}

ConsistencyLevel PromisedConsistency(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSweep:
    case Algorithm::kCStrobe:
    case Algorithm::kParallelSweep:
    case Algorithm::kPipelinedSweep:
      return ConsistencyLevel::kComplete;
    case Algorithm::kNestedSweep:
    case Algorithm::kStrobe:
    case Algorithm::kEca:
      return ConsistencyLevel::kStrong;
    case Algorithm::kRecompute:
      return ConsistencyLevel::kConvergent;
  }
  return ConsistencyLevel::kInconsistent;
}

const char* PromisedMessageCost(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSweep:
    case Algorithm::kNestedSweep:
    case Algorithm::kStrobe:
    case Algorithm::kParallelSweep:
    case Algorithm::kPipelinedSweep:
      return "O(n)";
    case Algorithm::kCStrobe:
      return "O(n!)";
    case Algorithm::kEca:
      return "O(1)";
    case Algorithm::kRecompute:
      return "O(n) bulk";
  }
  return "?";
}

std::unique_ptr<Warehouse> MakeWarehouse(Algorithm algorithm, int site_id,
                                         ViewDef view_def, Network* network,
                                         std::vector<int> source_sites,
                                         const WarehouseConfig& config) {
  switch (algorithm) {
    case Algorithm::kSweep: {
      SweepWarehouse::SweepOptions options;
      options.base = config.base;
      options.local_compensation = config.sweep_local_compensation;
      return std::make_unique<SweepWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          options);
    }
    case Algorithm::kParallelSweep:
      return std::make_unique<ParallelSweepWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          config.base);
    case Algorithm::kPipelinedSweep: {
      PipelinedSweepWarehouse::PipelineOptions options;
      options.base = config.base;
      options.max_inflight = config.pipeline_max_inflight;
      return std::make_unique<PipelinedSweepWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          options);
    }
    case Algorithm::kNestedSweep: {
      NestedSweepWarehouse::NestedOptions options;
      options.base = config.base;
      options.max_recursion_depth = config.nested_max_recursion_depth;
      return std::make_unique<NestedSweepWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          options);
    }
    case Algorithm::kStrobe:
      return std::make_unique<StrobeWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          config.base);
    case Algorithm::kCStrobe:
      return std::make_unique<CStrobeWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          config.base);
    case Algorithm::kEca: {
      EcaWarehouse::EcaOptions options;
      options.base = config.base;
      options.compensation = config.eca_compensation;
      return std::make_unique<EcaWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          options);
    }
    case Algorithm::kRecompute:
      return std::make_unique<RecomputeWarehouse>(
          site_id, std::move(view_def), network, std::move(source_sites),
          config.base);
  }
  SWEEP_CHECK_MSG(false, "unknown algorithm");
  return nullptr;
}

}  // namespace sweepmv
