// Virtual time for the whole simulator.
//
// Everything in the reproduction — NAND latencies, workload inter-arrival
// times, the detector's 1-second time slices — runs on one shared virtual
// clock measured in microseconds. Using a single integral unit keeps
// arithmetic exact and makes traces replayable bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>

namespace insider {

/// Virtual simulation time in microseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kUsPerMs = 1'000;
inline constexpr SimTime kUsPerSec = 1'000'000;

constexpr SimTime Microseconds(std::int64_t us) { return us; }
constexpr SimTime Milliseconds(std::int64_t ms) { return ms * kUsPerMs; }
constexpr SimTime Seconds(std::int64_t s) { return s * kUsPerSec; }
constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kUsPerSec);
}

// Sanctioned raw-integer bridges. This header is the one place a SimTime
// may meet a raw cast (insider_check's `simtime-cast` rule enforces it);
// call sites use these helpers so the intent — a count times a per-op
// cost, truncating a derived double, exporting the microsecond count to an
// external format — is named instead of spelled as a cast.

/// Total virtual cost of `count` operations at `per_op` microseconds each.
constexpr SimTime CostOf(std::uint64_t count, SimTime per_op) {
  return static_cast<SimTime>(count) * per_op;
}

/// Truncate a derived floating-point microsecond value to virtual time.
constexpr SimTime TruncateMicros(double us) {
  return static_cast<SimTime>(us);
}

/// The raw microsecond count, for serialization and external interfaces.
constexpr std::int64_t RawMicros(SimTime t) { return t; }

/// The raw microsecond count as unsigned, for size/seed-like consumers.
/// Requires t >= 0 (virtual time never runs negative).
constexpr std::uint64_t RawMicrosU64(SimTime t) {
  return static_cast<std::uint64_t>(t);
}

/// `t` packed as a 32-bit offset around `center`: one of the 2^32 times in
/// [center - 2^31, center + 2^31), or nothing. Packed records store times
/// this way against a shared 64-bit center (the recovery queue's 12-B
/// entries). The arithmetic is mod 2^64, so UnpackAround(center,
/// *PackAround(center, t)) == t for every pair of SimTimes.
constexpr std::optional<std::uint32_t> PackAround(SimTime center, SimTime t) {
  const std::uint64_t d = static_cast<std::uint64_t>(t) -
                          static_cast<std::uint64_t>(center) +
                          (std::uint64_t{1} << 31);
  if (d > 0xFFFF'FFFFu) return std::nullopt;
  return static_cast<std::uint32_t>(d);
}

constexpr SimTime UnpackAround(SimTime center, std::uint32_t offset) {
  return static_cast<SimTime>(static_cast<std::uint64_t>(center) + offset -
                              (std::uint64_t{1} << 31));
}

/// A monotonically advancing virtual clock. The experiment driver owns one
/// clock and advances it as it dispatches I/O events; components that need
/// "now" receive the timestamp explicitly with each request, so the clock is
/// mostly a convenience for drivers and tests.
class SimClock {
 public:
  SimClock() = default;
  explicit SimClock(SimTime start) : now_(start) {}

  SimTime Now() const { return now_; }

  /// Advance to an absolute time. Never moves backwards: events may be
  /// delivered with equal timestamps, but time itself is monotone.
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  void Advance(SimTime delta) { now_ += delta; }

 private:
  SimTime now_ = 0;
};

}  // namespace insider
