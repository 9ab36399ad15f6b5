// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (workload generators, fault injection, the
// experiment runner's scenario repetitions) takes an explicit Rng so a whole
// experiment is a pure function of its seed. We use SplitMix64 as the engine:
// it is tiny, fast, passes BigCrush, and — unlike std::mt19937 — has a
// trivially specified cross-platform output sequence.
#pragma once

#include <cstdint>
#include <limits>

#include "common/time.h"

namespace insider {

/// The SplitMix64 output function applied to `x`: a cheap, well-mixed 64-bit
/// hash (stamp and checksum mixing; not cryptographic).
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// SplitMix64 step.
  std::uint64_t operator()() {
    const std::uint64_t z = state_;
    state_ += 0x9E3779B97F4A7C15ull;
    return SplitMix64(z);
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// multiply-shift rejection method for unbiased results.
  std::uint64_t Below(std::uint64_t bound);

  /// Uniform virtual-time delta in [0, bound). Requires bound > 0. The
  /// SimTime-typed twin of Below() so timestamp arithmetic stays in the
  /// signed sim_time domain end to end.
  SimTime BelowTime(SimTime bound) {
    return static_cast<SimTime>(Below(static_cast<std::uint64_t>(bound)));
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t Between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool Chance(double p);

  /// Exponential variate with the given mean (> 0). Used for inter-arrival
  /// times in workload models.
  double Exponential(double mean);

  /// Standard normal via Marsaglia polar method.
  double Gaussian(double mean, double stddev);

  /// Pareto variate with scale xm > 0 and shape alpha > 0. Used for
  /// heavy-tailed file-size distributions.
  double Pareto(double xm, double alpha);

  /// Derive an independent child stream (e.g., one per workload in a mix).
  Rng Fork();

 private:
  std::uint64_t state_;
};

}  // namespace insider
