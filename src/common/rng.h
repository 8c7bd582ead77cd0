// Deterministic pseudo-random number generation.
//
// All randomness in the library (workload generation, channel latency
// jitter) flows through Rng so that every simulation run is reproducible
// from a single seed. The generator is SplitMix64: tiny, fast, and good
// enough for workload shaping (we are not doing cryptography or Monte
// Carlo integration).

#ifndef SWEEPMV_COMMON_RNG_H_
#define SWEEPMV_COMMON_RNG_H_

#include <cstdint>

namespace sweepmv {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  // Next raw 64-bit value.
  uint64_t Next();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponentially distributed value with the given mean (> 0). Used for
  // Poisson-process inter-arrival times of source updates.
  double Exponential(double mean);

  // Zipf-distributed value in [0, n-1] with exponent theta in (0, 1).
  // Approximation suitable for skewed key popularity in workloads.
  int64_t Zipf(int64_t n, double theta);

  // Derives an independent child generator; convenient for giving each
  // source its own stream while keeping a single top-level seed.
  Rng Fork();

  // Raw generator state, exposed for state fingerprinting (the explorer
  // hashes it so two system states with diverged RNG streams never alias).
  uint64_t state() const { return state_; }

 private:
  uint64_t state_;
};

class StateHasher;

// Fingerprint leaf for the state lists (common/state.h): the raw state.
void HashLeaf(StateHasher& h, const char* tag, const Rng& rng);

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_RNG_H_
