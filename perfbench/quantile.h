// Percentiles as the benchmark reports them: nearest rank, so a reported
// value is always one of the samples, and a tail level is only used when
// at least kMinBeyond samples lie beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
inline std::size_t NearestRank(std::size_t n, double q) {
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  std::size_t rank = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(rank, n);
}

/// Samples strictly above the nearest-rank q-quantile position.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// Nearest-rank q-quantile of `v` (reordered in place); 0 when empty.
template <typename T>
T Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::size_t idx = NearestRank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// The highest of p99.9, p99 and p90 that has at least kMinBeyond samples
/// beyond it, or 0.5 when even p90 has too few.
inline double HighestTailLevel(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9}) {
    if (SamplesBeyond(n, q) >= kMinBeyond) return q;
  }
  return 0.5;
}

/// Mean, median and tail of one timing, with the sample count behind them.
struct Timing {
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 0.0;
  std::size_t samples = 0;
};

/// Mean, median and the quantile at `tail_level`. The caller fixes the level per
/// workload (so it cannot jump between runs) and checks it against
/// HighestTailLevel(samples).
template <typename T>
Timing Summarize(std::vector<T> v, double tail_level) {
  Timing t;
  t.samples = v.size();
  t.tail_level = tail_level;
  double sum = 0.0;
  for (const T& x : v) sum += static_cast<double>(x);
  t.mean = v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  t.p50 = static_cast<double>(Quantile(v, 0.5));
  t.tail = static_cast<double>(Quantile(v, tail_level));
  return t;
}

}  // namespace perfbench
