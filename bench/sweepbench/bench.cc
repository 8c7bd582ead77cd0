#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/check.h"

namespace sweepbench {

namespace {

// Linear interpolation between closest ranks: Python's
// statistics.quantiles(method="inclusive").
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// About 50 ms on a 4-vCPU x86 VM. Never change it: every recorded
// throughput_vs_ref value is in units of this kernel.
uint64_t ReferenceKernel() {
  constexpr int kPasses = 15;
  constexpr int kOps = 20'000;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
  };
  uint64_t acc = 0;
  std::unordered_map<uint64_t, uint64_t> hashed;
  std::map<uint64_t, int> ordered;
  std::vector<std::vector<int>> small;
  std::vector<uint64_t> keys;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int i = 0; i < kOps; ++i) {
      const uint64_t r = next();
      hashed[r >> 40] += static_cast<uint64_t>(i);
      if (i % 4 == 0) ++ordered[r >> 44];
      if (i % 8 == 0) small.emplace_back(static_cast<size_t>(r >> 60) + 1, i);
    }
    for (int i = 0; i < kOps; ++i) {
      const auto it = hashed.find(next() >> 40);
      if (it != hashed.end()) {
        acc += it->second;
        hashed.erase(it);
      }
    }
    for (const auto& [key, value] : hashed) keys.push_back(key ^ value);
    std::sort(keys.begin(), keys.end());
    acc += keys.size() + ordered.size() + small.size();
    hashed.clear();
    ordered.clear();
    small.clear();
    keys.clear();
  }
  return acc;
}

}  // namespace

double ReferenceKernelSeconds() {
  const double start = NowSeconds();
  volatile uint64_t sink = ReferenceKernel();
  (void)sink;
  return NowSeconds() - start;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.n = static_cast<int>(samples.size());
  s.min = samples.front();
  s.max = samples.back();
  s.median = Quantile(samples, 0.5);
  s.q1 = Quantile(samples, 0.25);
  s.q3 = Quantile(samples, 0.75);
  return s;
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss carries over the peak of the process
  // image before execve (run.py's Python process, when it spawns this one).
  std::FILE* status = std::fopen("/proc/self/status", "r");
  SWEEP_CHECK_MSG(status != nullptr, "cannot read /proc/self/status");
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(status);
  SWEEP_CHECK_MSG(kib >= 0, "no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

std::string DescribeSamples(const std::string& name,
                            const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: min %.6g median %.6g max %.6g IQR [%.6g, %.6g] "
                "(%.1f%% of median) over %d reps",
                name.c_str(), s.min, s.median, s.max, s.q1, s.q3,
                s.median != 0.0 ? 100.0 * (s.q3 - s.q1) / s.median : 0.0,
                s.n);
  return line;
}

}  // namespace sweepbench
