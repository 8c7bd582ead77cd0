#include "common/rng.h"

#include <cmath>

#include "common/check.h"
#include "common/fingerprint.h"

namespace sweepmv {

uint64_t Rng::Next() {
  // SplitMix64 (Steele, Lea, Flood 2014). Public-domain reference constants.
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  SWEEP_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range requested.
    return static_cast<int64_t>(Next());
  }
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  SWEEP_CHECK(mean > 0.0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

int64_t Rng::Zipf(int64_t n, double theta) {
  SWEEP_CHECK(n > 0);
  SWEEP_CHECK(theta > 0.0 && theta < 1.0);
  // Inverse-CDF approximation of the continuous Zipf-like distribution:
  // rank ~ n * u^(1/(1-theta)) concentrates mass on low ranks.
  double u = NextDouble();
  double r = std::pow(u, 1.0 / (1.0 - theta));
  int64_t rank = static_cast<int64_t>(r * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return rank;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa5a5a5a55a5a5a5aULL); }

void HashLeaf(StateHasher& h, const char* tag, const Rng& rng) {
  h.U64(tag, rng.state());
}

}  // namespace sweepmv
