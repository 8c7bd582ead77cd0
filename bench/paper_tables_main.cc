// Prints every table of the paper's evaluation (bench/paper_tables.h) in
// EXPERIMENTS.md's terms, and exits non-zero if any run diverged from
// ground truth or any artifact's numbers break the paper's claim.
//
//   $ ./paper_tables

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/paper_tables.h"

using namespace sweepmv;

int main() {
  const std::vector<std::pair<const char*, PaperArtifact (*)()>> artifacts = {
      {"T1", Table1Comparison},     {"F2", Figure2Timeline},
      {"F5", Figure5Example},       {"E1", MessageComplexity},
      {"E2", ConcurrencyBlowup},    {"E3", EcaQuerySize},
      {"E4", Staleness},            {"E5", NestedAmortization},
      {"A1", AblationCompensation}, {"A2", SweepVariants},
      {"A3", BandwidthCost},
  };
  int failures = 0;
  for (const auto& [id, build] : artifacts) {
    const PaperArtifact artifact = build();
    std::printf("=== %s ===\n%s\n", id, artifact.Render().c_str());
    for (const std::string& failure : artifact.failures) {
      std::fprintf(stderr, "%s: %s\n", id, failure.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
