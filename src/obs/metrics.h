// Device-wide metrics registry: named counters, gauges, and auto-ranging
// log-bucketed histograms.
//
// The registry is the one place benches and tools read performance numbers
// from. Its histogram is deliberately *auto-ranging*: a fixed-bucket
// histogram needs a priori [lo, hi) bounds, and a tail that escapes them is
// easy to clamp into the edge buckets by mistake. LogHistogram has no bounds
// to misconfigure — buckets are log-spaced octaves with linear sub-buckets
// (HdrHistogram-style), grown on demand, and the only samples it cannot
// place (negatives, astronomically large values) are counted explicitly in
// Underflow()/Overflow() so no quantile is ever invented.
//
// All values are plain doubles; latencies are recorded in SimTime
// microseconds. Nothing here touches the virtual clock: recording a metric
// never perturbs simulated time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace insider::obs {

/// Monotonic event count.
class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t Value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double Value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Auto-ranging log-bucketed histogram.
///
/// Layout: one bucket for exact zero, one for (0, resolution), then octaves
/// [resolution*2^o, resolution*2^(o+1)) each split into `sub_buckets` linear
/// sub-buckets. Relative bucket width is therefore bounded by 1/sub_buckets
/// at every scale, and the bucket vector grows lazily with the largest
/// sample seen. Negative samples land in Underflow(); samples past
/// resolution*2^63 land in Overflow(). Both are part of the quantile walk,
/// saturating to the observed min/max instead of interpolating inside mass
/// the histogram never bucketed.
class LogHistogram {
 public:
  explicit LogHistogram(double resolution = 1.0, std::uint32_t sub_buckets = 8);

  void Add(double x);

  std::uint64_t Count() const { return count_; }
  std::uint64_t Underflow() const { return underflow_; }
  std::uint64_t Overflow() const { return overflow_; }
  /// Observed extremes (exact, not bucket edges). NaN when empty.
  double Min() const;
  double Max() const;
  double Mean() const;
  double Sum() const { return sum_; }

  /// The bucket edges sandwiching the q-quantile: for any sample stream the
  /// exact sorted-vector quantile (k-th smallest, k = max(1, ceil(q*n)))
  /// satisfies lower <= exact <= upper. Edges are tightened to the observed
  /// min/max. Both NaN when empty.
  struct Bounds {
    double lower;
    double upper;
  };
  Bounds QuantileBounds(double q) const;
  /// Conservative point estimate: the upper sandwich bound.
  double Quantile(double q) const { return QuantileBounds(q).upper; }

  std::string ToString() const;

 private:
  // Index into counts_ for a positive value >= resolution_, or SIZE_MAX for
  // overflow. counts_[0] is the zero bucket, counts_[1] the sub-resolution
  // bucket, octave buckets start at index 2.
  std::size_t BucketOf(double x) const;
  Bounds BucketBounds(std::size_t index) const;

  double resolution_;
  std::uint32_t sub_buckets_;
  std::vector<std::uint64_t> counts_;  // grown on demand
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Name-keyed registry. Get* creates on first use; references stay valid for
/// the registry's lifetime (std::map nodes are stable). Iteration is sorted
/// by name, so exports are deterministic.
///
/// Naming scheme (see DESIGN.md §10): `layer.object_metric[_unit]`, e.g.
/// `engine.queue_wait_us`, `ftl.gc_stall_us`, `nand.cell_program_us`.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& GetHistogram(const std::string& name) {
    return histograms_.try_emplace(name).first->second;
  }

  const std::map<std::string, Counter>& Counters() const { return counters_; }
  const std::map<std::string, Gauge>& Gauges() const { return gauges_; }
  const std::map<std::string, LogHistogram>& Histograms() const {
    return histograms_;
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms export count/min/max/mean/p50/p90/p99/underflow/overflow.
  /// Non-finite values (empty histograms) serialize as null, mirroring
  /// bench/json_writer.h.
  std::string SnapshotJson() const;
  /// Writes SnapshotJson() to `path`; false on I/O failure.
  bool WriteSnapshot(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace insider::obs
