// The paper's evaluation as tier-1 goldens: one test per artifact of
// bench/paper_tables.h. Each pins every header and cell the paper_tables
// binary prints, and requires the artifact to report no failure: no run
// behind any of its tables diverged from ground truth, and no measured
// number breaks the claim it reproduces (EXPERIMENTS.md lists them).

#include "bench/paper_tables.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/str.h"

namespace sweepmv {
namespace {

using Cells = std::vector<std::string>;

struct GoldenTable {
  Cells headers;
  // An empty row is a separator rule.
  std::vector<Cells> rows;
};

void ExpectArtifact(const PaperArtifact& artifact,
                    const std::vector<GoldenTable>& want) {
  EXPECT_TRUE(artifact.failures.empty()) << Join(artifact.failures, "\n");
  ASSERT_EQ(artifact.tables.size(), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    const PaperTable& got = artifact.tables[t];
    EXPECT_EQ(got.headers, want[t].headers) << got.title;
    ASSERT_EQ(got.rows.size(), want[t].rows.size()) << got.title;
    for (size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r], want[t].rows[r]) << got.title << "row " << r;
    }
  }
}

TEST(PaperTablesTest, T1Table1Comparison) {
  const Cells headers = {
      "Algorithm", "Architecture", "Consistency (paper)",
      "Consistency (measured)", "Msg cost (paper)", "msgs/upd n=2",
      "msgs/upd n=8", "Comments"
  };
  const std::vector<Cells> rows = {
      {"SWEEP", "Distributed", "complete", "complete", "O(n)", "2.0", "14.0",
       "local compensation"},
      {"NestedSWEEP", "Distributed", "strong", "strong", "O(n)", "1.2", "3.8",
       "local compensation"},
      {"Strobe", "Distributed", "strong", "strong", "O(n)", "1.4", "9.9",
       "unique key assumption"},
      {"C-Strobe", "Distributed", "complete", "complete", "O(n!)", "1.4",
       "133.2", "remote compensation; unique key assumption"},
      {"ECA", "Centralized", "strong", "strong", "O(1)", "2.0", "2.0",
       "query grows to 186 terms"},
      {"Recompute", "Distributed", "convergent", "convergent", "O(n) bulk",
       "2.3", "8.7", "-"},
  };
  ExpectArtifact(Table1Comparison(), {{headers, rows}});
}

// Figure 2 stays a golden of its rendered text: the message trace
// (harness/trace.h) has no cells to pin.
TEST(PaperTablesTest, F2Figure2Timeline) {
  const PaperArtifact artifact = Figure2Timeline();
  ExpectArtifact(artifact, {});
  EXPECT_EQ(artifact.Render(), R"txt(Figure 2 — on-line incremental view computation, traced.
System: WH = warehouse, R0..R2 = sources (0-based relation
indices); fixed one-way latency
1000 ticks. Scenario: the Section 5.2 concurrent updates.

t=0       R1   sends   update u0 of R1 {(3,5)[1]}
t=400     R2   sends   update u1 of R2 {(7,8)[-1]}
t=500     R0   sends   update u2 of R0 {(2,3)[-1]}
t=1000    WH   gets    update u0 of R1 {(3,5)[1]}  (from R1)
t=1000    WH   sends   query #0 -> R0 (extend left, span[1,1], 1 tuples)
t=1400    WH   gets    update u1 of R2 {(7,8)[-1]}  (from R2)
t=1500    WH   gets    update u2 of R0 {(2,3)[-1]}  (from R0)
t=2000    R0   gets    query #0 -> R0 (extend left, span[1,1], 1 tuples)  (from WH)
t=2000    R0   sends   answer #0 span[0,1] (1 tuples)
t=3000    WH   gets    answer #0 span[0,1] (1 tuples)  (from R0)
t=3000    WH   sends   query #1 -> R2 (extend right, span[0,1], 2 tuples)
t=4000    R2   gets    query #1 -> R2 (extend right, span[0,1], 2 tuples)  (from WH)
t=4000    R2   sends   answer #1 span[0,2] (2 tuples)
t=5000    WH   gets    answer #1 span[0,2] (2 tuples)  (from R2)
t=5000    WH   INSTALLS [u0] -> {(5,6)[2], (7,8)[2]}
t=5000    WH   sends   query #2 -> R1 (extend left, span[2,2], 1 tuples)
t=6000    R1   gets    query #2 -> R1 (extend left, span[2,2], 1 tuples)  (from WH)
t=6000    R1   sends   answer #2 span[1,2] (1 tuples)
t=7000    WH   gets    answer #2 span[1,2] (1 tuples)  (from R1)
t=7000    WH   sends   query #3 -> R0 (extend left, span[1,2], 1 tuples)
t=8000    R0   gets    query #3 -> R0 (extend left, span[1,2], 1 tuples)  (from WH)
t=8000    R0   sends   answer #3 span[0,2] (1 tuples)
t=9000    WH   gets    answer #3 span[0,2] (1 tuples)  (from R0)
t=9000    WH   INSTALLS [u1] -> {(5,6)[2]}
t=9000    WH   sends   query #4 -> R1 (extend right, span[0,0], 1 tuples)
t=10000   R1   gets    query #4 -> R1 (extend right, span[0,0], 1 tuples)  (from WH)
t=10000   R1   sends   answer #4 span[0,1] (2 tuples)
t=11000   WH   gets    answer #4 span[0,1] (2 tuples)  (from R1)
t=11000   WH   sends   query #5 -> R2 (extend right, span[0,1], 2 tuples)
t=12000   R2   gets    query #5 -> R2 (extend right, span[0,1], 2 tuples)  (from WH)
t=12000   R2   sends   answer #5 span[0,2] (1 tuples)
t=13000   WH   gets    answer #5 span[0,2] (1 tuples)  (from R2)
t=13000   WH   INSTALLS [u2] -> {(5,6)[1]}

What to look for (the paper's FIFO argument, live):
  * WH gets 'update u1 of R2' and 'update u2 of R0' BEFORE it
    gets the answers those updates contaminated — so both error
    terms were subtracted locally, no compensating query appears
    anywhere in the trace;
  * the sweep for each update is exactly (n-1) query/answer
    round trips, left chain then right chain;
  * every INSTALL line is a Figure 5 state, in delivery order.
Measured consistency: complete
)txt");
}

TEST(PaperTablesTest, F5Figure5Example) {
  const Cells headers = {
      "Event", "Warehouse V (paper)", "Warehouse V (measured)", "Match"
  };
  const std::vector<Cells> rows = {
      {"Initial State", "{(7,8)[2]}", "{(7,8)[2]}", "yes"},
      {"dR2 = +(3,5) (insert)", "{(5,6)[2], (7,8)[2]}",
       "{(5,6)[2], (7,8)[2]}", "yes"},
      {"dR3 = -(7,8) (delete)", "{(5,6)[2]}", "{(5,6)[2]}", "yes"},
      {"dR1 = -(2,3) (delete)", "{(5,6)[1]}", "{(5,6)[1]}", "yes"},
  };
  const PaperArtifact artifact = Figure5Example();
  ExpectArtifact(artifact, {{headers, rows}});
  // paper_example_test pins the state sequence and the consistency
  // level; this pins the message count: 3 updates x 2(n-1).
  EXPECT_EQ(artifact.text,
            "Consistency: complete; maintenance messages: 6 queries, 6 "
            "answers\nFigure 5 reproduced: YES\n");
}

TEST(PaperTablesTest, E1MessageComplexity) {
  const Cells headers = {
      "n", "2(n-1)", "SWEEP", "NestedSWEEP", "Strobe", "C-Strobe", "ECA"
  };
  const std::vector<Cells> sequential = {
      {"2", "2", "2.0", "1.9", "1.5", "1.5", "2.0"},
      {"3", "4", "4.0", "3.8", "3.0", "3.2", "2.0"},
      {"4", "6", "6.0", "5.4", "4.5", "4.8", "2.0"},
      {"6", "10", "10.0", "8.9", "7.5", "8.5", "2.0"},
      {"8", "14", "14.0", "11.9", "10.5", "13.0", "2.0"},
      {"10", "18", "18.0", "14.2", "13.5", "16.8", "2.0"},
      {"12", "22", "22.0", "18.8", "16.5", "22.2", "2.0"},
  };
  const std::vector<Cells> concurrent = {
      {"2", "2", "2.0", "1.2", "1.5", "1.5", "2.0"},
      {"3", "4", "4.0", "1.5", "3.0", "5.9", "2.0"},
      {"4", "6", "6.0", "1.8", "4.5", "15.0", "2.0"},
      {"6", "10", "10.0", "2.7", "7.5", "58.3", "2.0"},
      {"8", "14", "14.0", "3.7", "10.5", "122.8", "2.0"},
      {"10", "18", "18.0", "4.8", "13.5", "135.6", "2.0"},
      {"12", "22", "22.0", "7.2", "16.5", "293.8", "2.0"},
  };
  ExpectArtifact(MessageComplexity(),
                 {{headers, sequential}, {headers, concurrent}});
}

TEST(PaperTablesTest, E2ConcurrencyBlowup) {
  const Cells headers = {
      "~K", "SWEEP msgs/upd", "NestedSWEEP msgs/upd", "C-Strobe msgs/upd",
      "C-Strobe comp. queries"
  };
  const std::vector<Cells> n3 = {
      {"0.1", "4.0", "3.9", "1.6", "3"},
      {"0.5", "4.0", "3.1", "1.8", "6"},
      {"1.0", "4.0", "2.3", "2.2", "14"},
      {"2.0", "4.0", "1.3", "4.4", "101"},
      {"4.0", "4.0", "0.9", "5.7", "174"},
  };
  const std::vector<Cells> n4 = {
      {"0.1", "6.0", "5.7", "2.5", "2"},
      {"0.5", "6.0", "4.0", "3.6", "12"},
      {"1.0", "6.0", "2.7", "8.8", "99"},
      {"2.0", "6.0", "1.7", "25.6", "488"},
      {"4.0", "6.0", "1.0", "26.2", "508"},
  };
  const std::vector<Cells> n5 = {
      {"0.1", "8.0", "7.3", "3.5", "3"},
      {"0.5", "8.0", "4.5", "10.5", "50"},
      {"1.0", "8.0", "2.7", "39.1", "401"},
      {"2.0", "8.0", "1.9", "95.9", "1292"},
      {"4.0", "8.0", "1.4", "95.9", "1292"},
  };
  ExpectArtifact(ConcurrencyBlowup(),
                 {{headers, n3}, {headers, n4}, {headers, n5}});
}

TEST(PaperTablesTest, E3EcaQuerySize) {
  const Cells headers = {
      "Burst B", "ECA max terms/query", "ECA total terms", "ECA terms/update",
      "ECA msgs/update", "SWEEP msgs/update"
  };
  const std::vector<Cells> rows = {
      {"1", "1", "1", "1.0", "2.0", "4.0"},
      {"2", "1", "2", "1.0", "2.0", "4.0"},
      {"3", "3", "5", "1.7", "2.0", "4.0"},
      {"4", "3", "8", "2.0", "2.0", "4.0"},
      {"6", "12", "23", "3.8", "2.0", "4.0"},
      {"8", "15", "44", "5.5", "2.0", "4.0"},
      {"10", "20", "79", "7.9", "2.0", "4.0"},
  };
  ExpectArtifact(EcaQuerySize(), {{headers, rows}});
}

TEST(PaperTablesTest, E4Staleness) {
  const Cells headers = {
      "Algorithm", "Installs", "First install vs stream end", "Staleness",
      "Mean lag/update"
  };
  const std::vector<Cells> sparse = {
      {"SWEEP", "40", "during", "2.50e+05", "6251"},
      {"NestedSWEEP", "22", "during", "2.52e+05", "6311"},
      {"Strobe", "21", "during", "1.82e+05", "4548"},
      {"ECA", "26", "during", "1.16e+05", "2900"},
  };
  const std::vector<Cells> mid = {
      {"SWEEP", "40", "during", "1.42e+06", "35430"},
      {"NestedSWEEP", "4", "during", "8.73e+05", "21830"},
      {"Strobe", "8", "during", "3.25e+05", "8116"},
      {"ECA", "4", "during", "9.77e+05", "24420"},
  };
  const std::vector<Cells> dense = {
      {"SWEEP", "40", "during", "2.38e+06", "59393"},
      {"NestedSWEEP", "1", "after", "5.84e+05", "14593"},
      {"Strobe", "1", "after", "3.78e+05", "9461"},
      {"ECA", "1", "after", "2.31e+06", "57793"},
  };
  ExpectArtifact(Staleness(),
                 {{headers, sparse}, {headers, mid}, {headers, dense}});
}

TEST(PaperTablesTest, E5NestedAmortization) {
  const Cells amortization_headers = {
      "Batch B", "Installs", "Nested calls", "msgs/update",
      "SWEEP msgs/update (ref)"
  };
  const std::vector<Cells> amortization = {
      {"1", "1", "0", "6.0", "6.0"},
      {"2", "1", "1", "5.0", "6.0"},
      {"4", "1", "2", "3.5", "6.0"},
      {"6", "1", "3", "2.3", "6.0"},
      {"8", "1", "3", "1.8", "6.0"},
      {"12", "1", "4", "1.7", "6.0"},
  };
  const Cells budgets_headers = {
      "Depth budget", "Installs", "Nested calls", "Forced deferrals",
      "msgs/update", "Consistency (measured)"
  };
  const std::vector<Cells> budgets = {
      {"64", "1", "4", "0", "1.7", "strong"},
      {"8", "1", "4", "0", "1.7", "strong"},
      {"4", "1", "4", "0", "1.7", "strong"},
      {"2", "6", "3", "3", "4.0", "strong"},
      {"1", "12", "0", "27", "6.0", "complete"},
  };
  ExpectArtifact(NestedAmortization(),
                 {{amortization_headers, amortization},
                  {budgets_headers, budgets}});
}

TEST(PaperTablesTest, A1AblationCompensation) {
  const Cells headers = {
      "Interference", "Compensation", "Consistency", "Final correct",
      "Error tuples", "msgs/update"
  };
  const std::vector<Cells> rows = {
      {"rare", "ON", "complete", "yes", "0", "4.0"},
      {"rare", "OFF", "inconsistent", "NO", "2", "4.0"},
      {},
      {"light", "ON", "complete", "yes", "0", "4.0"},
      {"light", "OFF", "inconsistent", "NO", "36", "4.0"},
      {},
      {"moderate", "ON", "complete", "yes", "0", "4.0"},
      {"moderate", "OFF", "inconsistent", "NO", "50", "4.0"},
      {},
      {"heavy", "ON", "complete", "yes", "0", "4.0"},
      {"heavy", "OFF", "inconsistent", "NO", "53", "4.0"},
  };
  ExpectArtifact(AblationCompensation(), {{headers, rows}});
}

TEST(PaperTablesTest, A2SweepVariants) {
  const Cells latency_headers = {
      "n", "SWEEP mean lag", "ParallelSWEEP mean lag", "SWEEP msgs/upd",
      "Parallel msgs/upd", "Consistency (both)"
  };
  const std::vector<Cells> latency = {
      {"3", "5010", "4010", "4.0", "4.0", "complete / complete"},
      {"5", "11072", "9279", "8.0", "8.0", "complete / complete"},
      {"7", "18559", "13139", "12.0", "12.0", "complete / complete"},
      {"9", "26288", "19826", "16.0", "16.0", "complete / complete"},
  };
  const Cells pipeline_headers = {
      "Algorithm / inflight", "Staleness", "Mean lag", "Finish time",
      "msgs/update", "Consistency"
  };
  const std::vector<Cells> pipeline = {
      {"SWEEP (sequential)", "2.56e+06", "85178", "181659", "6.0",
       "complete"},
      {"PipelinedSWEEP x2", "1.21e+06", "40444", "92191", "6.0", "complete"},
      {"PipelinedSWEEP x4", "5.48e+05", "18275", "50191", "6.0", "complete"},
      {"PipelinedSWEEP x16", "1.80e+05", "6000", "23048", "6.0", "complete"},
  };
  ExpectArtifact(SweepVariants(), {{latency_headers, latency},
                                   {pipeline_headers, pipeline}});
}

TEST(PaperTablesTest, A3BandwidthCost) {
  const Cells headers = {
      "Algorithm", "Payload (tuples)", "Mean lag", "Finish time",
      "Consistency"
  };
  const std::vector<Cells> free = {
      {"SWEEP", "88", "2079", "390154", "complete"},
      {"ParallelSWEEP", "84", "1767", "390154", "complete"},
      {"C-Strobe", "70", "1579", "388154", "complete"},
      {"Recompute", "2431", "1017", "389154", "convergent"},
  };
  const std::vector<Cells> cost20 = {
      {"SWEEP", "88", "2173", "390194", "complete"},
      {"ParallelSWEEP", "84", "1847", "390194", "complete"},
      {"C-Strobe", "70", "1650", "388174", "complete"},
      {"Recompute", "2431", "2113", "390214", "convergent"},
  };
  const std::vector<Cells> cost100 = {
      {"SWEEP", "88", "2548", "390354", "complete"},
      {"ParallelSWEEP", "84", "2167", "390354", "complete"},
      {"C-Strobe", "70", "1936", "388254", "complete"},
      {"Recompute", "2431", "6594", "394454", "complete"},
  };
  ExpectArtifact(BandwidthCost(),
                 {{headers, free}, {headers, cost20}, {headers, cost100}});
}

}  // namespace
}  // namespace sweepmv
