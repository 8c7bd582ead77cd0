// The paper's evaluation, regenerated: Table 1 (T1), the Figure 2 and
// Figure 5 walk-throughs (F2, F5), the complexity and behaviour claims of
// Sections 3-6 (E1-E5) and three ablations (A1-A3). EXPERIMENTS.md sets
// each artifact beside the paper's claim.
//
// Each builder runs its scenarios and returns the artifact as values: the
// cells of every table it prints, and a failure for every run whose final
// view missed ground truth and for every measured number that breaks the
// claim the artifact reproduces. The paper_tables binary prints every
// artifact and fails on any failure; tests/paper_tables_test.cc pins
// every cell.

#ifndef SWEEPMV_BENCH_PAPER_TABLES_H_
#define SWEEPMV_BENCH_PAPER_TABLES_H_

#include <string>
#include <vector>

namespace sweepmv {

// One printed table: the text above it, its column headers and its rows
// of cells. An empty row prints as a separator rule.
struct PaperTable {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

struct PaperArtifact {
  // Printed first, then each table, then `text`.
  std::string caption;
  std::vector<PaperTable> tables;
  std::string text;
  // Empty when the artifact reproduces the paper.
  std::vector<std::string> failures;

  std::string Render() const;
};

PaperArtifact Table1Comparison();      // T1
PaperArtifact Figure2Timeline();       // F2
PaperArtifact Figure5Example();        // F5
PaperArtifact MessageComplexity();     // E1
PaperArtifact ConcurrencyBlowup();     // E2
PaperArtifact EcaQuerySize();          // E3
PaperArtifact Staleness();             // E4
PaperArtifact NestedAmortization();    // E5
PaperArtifact AblationCompensation();  // A1
PaperArtifact SweepVariants();         // A2
PaperArtifact BandwidthCost();         // A3

}  // namespace sweepmv

#endif  // SWEEPMV_BENCH_PAPER_TABLES_H_
