// Shared vocabulary of the sweepbench workloads: run options, the result
// every workload returns, and the repetition and statistics helpers.

#ifndef SWEEPBENCH_BENCH_H_
#define SWEEPBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sweepbench {

struct RunOptions {
  uint64_t seed = 1;
  // Wall-clock budget of the measured repetitions.
  double seconds = 10.0;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Smoke size: small inputs, same code paths (the ctest configuration).
  bool smoke = false;
  // Where the traced run writes its raw spans; empty = nowhere.
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Canonical text of every schedule-determined output of one repetition
  // (final views, counters, staleness): identical across repetitions,
  // and between the traced and the untraced run of the same seed.
  std::string deterministic;
  // Per-repetition samples behind the timed end-to-end metrics.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  // Human-readable lines printed ahead of the result line.
  std::vector<std::string> notes;
  // The traced run's sanity check failed (self times vs traced total).
  bool trace_check_failed = false;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// part / whole, or 0 when there is no whole (a bypassed layer).
inline double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Calls `rep(index)` until `seconds` have passed since the first call,
// and at least `min_reps` times.
template <typename F>
int RepeatFor(double seconds, int min_reps, F&& rep) {
  const double start = NowSeconds();
  int reps = 0;
  while (reps < min_reps || NowSeconds() - start < seconds) {
    rep(reps);
    ++reps;
  }
  return reps;
}

// Machine-speed calibration. A shared host's speed drifts by tens of
// percent over minutes, which no statistic over one run's repetitions
// can remove. The reference kernel — fixed, self-contained work (hash
// map, ordered map, sort, small allocations) sharing no code with the
// system under test — runs between timed repetitions, so both see the
// same machine; a workload's median repetition time divided by the
// kernel's median time is its cost in reference units, in which the
// drift cancels. Runs the kernel once and returns its wall time.
double ReferenceKernelSeconds();

// Statistics over repetition samples (the input is copied and sorted).
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  int n = 0;
};
Summary Summarize(std::vector<double> samples);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// "name: min A median M max B IQR [Q1, Q3] over N reps".
std::string DescribeSamples(const std::string& name,
                            const std::vector<double>& samples);

}  // namespace sweepbench

#endif  // SWEEPBENCH_BENCH_H_
