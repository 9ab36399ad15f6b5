// Multi-tenant host driver for the multi-queue I/O frontend.
//
// N independent application streams (plus, optionally, one ransomware
// stream) multiplex over the engine's queue pairs (tenant i drives pair
// i % QueueCount(), so any tenant count is legal on any engine). The driver
// plays every stream in its own time order, topping up each tenant's
// submission ring until it is full — queue-full is the backpressure signal:
// that tenant stalls, the stall is counted, and the tenant resumes only
// after the device posts a completion that frees a slot. The engine's
// arbitration then interleaves the tenants the way a real multi-queue drive
// would, so the in-SSD detector finally sees headers from many "users"
// mixed at the device, not a pre-merged trace.
//
// The host loop is event-driven: after each engine event the driver reaps
// only the pair the engine posted a completion to, and only pairs that
// reaped take part in the next pick. A blocked pair's stalls — one per
// event it sits through full — are charged in one addition when it reaps.
//
// Every command carries its tenant's namespace id (TenantSpec::nsid), which
// is both the completion-attribution key when pairs are shared and the
// isolation key the device's per-namespace detector pool routes by.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/stats.h"
#include "common/time.h"
#include "io/io_engine.h"

namespace insider::wl {

struct TenantSpec {
  std::string name;
  std::vector<IoRequest> requests;  ///< time-sorted, the tenant's stream
  /// Base for write-payload stamps; each written block gets a distinct
  /// stamp `stamp_base + blocks written so far`, so tests can attribute
  /// device contents to tenants.
  std::uint64_t stamp_base = 0;
  bool is_ransomware = false;  ///< ground truth for detection experiments
  /// Namespace id stamped on every request header. 0 = auto-assign (tenant
  /// i gets nsid i+1). Resolved ids must be unique across tenants —
  /// completions are attributed by nsid, since many tenants can legally
  /// multiplex over fewer queue pairs.
  std::uint32_t nsid = 0;
};

/// Driver knobs, defaulted to safe fleet-scale behavior.
struct MultiTenantOptions {
  /// Ring cap on each tenant's per-command sample series (latencies,
  /// complete_times): oldest samples drop first once the cap is hit, and
  /// TenantResult::samples_dropped counts them. RunningStats stays exact
  /// over every completion regardless. 0 = unbounded (offline analysis of
  /// short runs). Bounds driver memory on paper-scale runs the same way
  /// DetectorConfig::history_limit bounds detector introspection state.
  std::size_t sample_limit = 4096;
};

struct TenantResult {
  std::string name;
  bool is_ransomware = false;
  std::uint32_t nsid = 0;        ///< namespace the tenant's commands carried
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;      ///< completions with ok == false
  std::uint64_t stall_events = 0;  ///< submissions refused by a full SQ
  RunningStats latency_us;       ///< submit-to-complete, µs — exact, uncapped
  /// Per-command samples in completion order, ring-capped at
  /// MultiTenantOptions::sample_limit (most recent survive).
  std::deque<SimTime> latencies;
  std::deque<SimTime> complete_times;
  std::uint64_t samples_dropped = 0;  ///< samples evicted by the ring cap
  SimTime last_complete_time = 0;
};

enum class MultiTenantStatus : std::uint8_t {
  kOk,
  /// Two tenants resolved to the same namespace id: completion attribution
  /// would be ambiguous, so the run refuses before submitting anything.
  kDuplicateNamespace,
  /// A queue pair has submission depth 0: it refuses every command, so its
  /// tenants could never drain. The run refuses before submitting anything.
  kZeroDepthQueue,
};

const char* MultiTenantStatusName(MultiTenantStatus status);

struct MultiTenantReport {
  MultiTenantStatus status = MultiTenantStatus::kOk;
  std::vector<TenantResult> tenants;
  std::uint64_t total_dispatched = 0;
  SimTime first_submit_time = 0;
  /// Device clock when the last command finished. Pinned to at least
  /// first_submit_time, so a run with zero completions yields a zero span —
  /// never an unsigned-underflow span feeding TotalIops garbage.
  SimTime end_time = 0;

  double TotalIops() const {
    double span = ToSeconds(end_time - first_submit_time);
    return span > 0 ? static_cast<double>(total_dispatched) / span : 0.0;
  }
};

class MultiTenantDriver {
 public:
  /// Tenant i drives queue pair `i % engine.QueueCount()`; any tenant count
  /// works on any engine (tenants beyond the pair count share rings and are
  /// told apart by nsid).
  explicit MultiTenantDriver(std::vector<TenantSpec> tenants,
                             MultiTenantOptions options = {});

  /// Play every stream to exhaustion through `engine`, reaping completions
  /// as they post. Returns per-tenant latency/backpressure accounting;
  /// check `report.status` — a kDuplicateNamespace or kZeroDepthQueue run
  /// submits nothing.
  MultiTenantReport Run(io::IoEngine& engine);

  const std::vector<TenantSpec>& Tenants() const { return tenants_; }

 private:
  std::vector<TenantSpec> tenants_;
  MultiTenantOptions options_;
};

}  // namespace insider::wl
