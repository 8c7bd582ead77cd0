// The explorer workloads: exhaustive schedule-space exploration of fixed
// scenarios (the run seed is recorded but unused).

#ifndef SWEEPBENCH_EXPLORE_H_
#define SWEEPBENCH_EXPLORE_H_

#include <string>

#include "bench.h"

namespace sweepbench {

bool IsExploreWorkload(const std::string& name);

WorkloadResult RunExplore(const std::string& name, const RunOptions& options);

}  // namespace sweepbench

#endif  // SWEEPBENCH_EXPLORE_H_
