// Per-namespace detection under a budgeted DRAM pool.
//
// A fleet-serving SSD exposes many namespaces (one per tenant/queue pair);
// feeding every tenant's headers into ONE counting table lets a noisy benign
// neighbor dilute — or fabricate — another namespace's features. The pool
// owns one independent core::Detector per namespace instead, so each
// tenant's sliding window sees only its own header stream.
//
// Firmware DRAM is finite, so the pool is budgeted: every instance is priced
// with the paper's Table III cost model (hash index + counting table +
// sliding-window state + history ring; see EstimateDetectorBytes), and when
// the fleet's modeled total exceeds DetectorPoolConfig::dram_budget_bytes
// the pool degrades *gracefully and loudly* — largest instance first:
//
//   1. halve that instance's history ring (introspection depth only),
//   2. halve its counting-table caps (bounded tracking, same semantics),
//   3. evict the least-recently-active unpinned instance (cold restart on
//      its next request),
//   4. as a last resort, admit over budget and record kOverBudget — the
//      pool fails open (detection keeps running) but never silently.
//
// Every step is recorded as a typed PoolPressureEvent; host::Ssd mirrors the
// pool's counters into the obs gauges detector.pool.{instances,bytes,
// evictions,pressure_events}.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/detector.h"

namespace insider::core {

/// NVMe-style namespace id. 0 is the default namespace: untagged traffic
/// (single-tenant paths, direct Ssd submission) lands there, and its
/// detector instance is pinned — it can degrade but never be evicted.
using NamespaceId = std::uint32_t;

struct DetectorPoolConfig {
  /// Route each namespace to its own detector instance. False = the seed
  /// single-detector behavior: every namespace shares instance 0, and
  /// detection results are bit-identical to the pre-pool device.
  bool per_namespace = false;
  /// Modeled-DRAM ceiling over all instances (Table III cost model).
  /// 0 = unbudgeted.
  std::size_t dram_budget_bytes = 0;
  /// Degradation floors: pressure never shrinks an instance below these.
  std::size_t min_history_limit = 64;
  std::size_t min_table_entries = 64;
  std::size_t min_hash_keys = 1024;
  /// Allow step 3 (evicting idle unpinned instances) under pressure.
  bool evict_under_pressure = true;
};

/// Modeled DRAM of one detector instance at the given capacities — the
/// Table III cost model at this implementation's structure sizes (the same
/// shapes host::ActualDramBudget prices): one key slot per hash key at the
/// key table's maximum load, one run slot per counting-table entry, the
/// sliding-window deques, and the history ring. This is the *budgeted*
/// (capacity) cost: the table's arrays grow lazily, but the budget must hold
/// at the configured worst case.
std::size_t EstimateDetectorBytes(const DetectorConfig& config);

enum class PoolPressureAction : std::uint8_t {
  kShrinkHistory,  ///< halved an instance's history ring
  kShrinkTable,    ///< halved an instance's counting-table caps
  kEvictInstance,  ///< dropped an idle unpinned instance entirely
  kOverBudget,     ///< floors reached, nothing evictable: admitted over budget
};

const char* PoolPressureActionName(PoolPressureAction action);

struct PoolPressureEvent {
  PoolPressureAction action{};
  NamespaceId ns = 0;          ///< instance the action was applied to
  std::size_t bytes_before = 0;  ///< pool total before the action
  std::size_t bytes_after = 0;   ///< pool total after the action
};

/// Everything that happened under DRAM pressure, in order. Cleared only by
/// Reset(); a fleet harness snapshots it after a run.
struct PoolPressureReport {
  std::vector<PoolPressureEvent> events;
  std::uint64_t evictions = 0;    ///< kEvictInstance count
  std::uint64_t over_budget = 0;  ///< kOverBudget admissions
  bool WithinBudget(std::size_t bytes_now, std::size_t budget) const {
    return budget == 0 || bytes_now <= budget;
  }
};

class DetectorPool {
 public:
  DetectorPool(const DetectorConfig& detector_template,
               const DetectorPoolConfig& config, DecisionTree tree);

  /// The instance serving `ns` (instance 0 when per_namespace is off),
  /// creating it — under the budget — on first use. The reference is valid
  /// until the pool mutates (an eviction can reclaim unpinned instances);
  /// callers must not hold it across other pool calls.
  Detector& ForNamespace(NamespaceId ns);

  /// Route one request header to its namespace's detector.
  void OnRequest(NamespaceId ns, const IoRequest& request);

  /// Close elapsed slices on every instance (firmware tick / idle time).
  void AdvanceAllTo(SimTime now);

  /// Earliest pending slice boundary across instances — the due time of the
  /// firmware scheduler's detector tick.
  SimTime NextSliceEnd() const;

  // Alarm state (fleet-wide) -------------------------------------------

  bool AnyAlarmActive() const;
  /// Earliest first-alarm time across instances, if any instance alarmed.
  std::optional<SimTime> FirstAlarmTime() const;

  // Introspection ------------------------------------------------------

  std::size_t InstanceCount() const { return instances_.size(); }
  /// Modeled DRAM of the current fleet (Table III cost model).
  std::size_t EstimatedBytes() const;
  const DetectorPoolConfig& Config() const { return config_; }
  const PoolPressureReport& Pressure() const { return pressure_; }
  /// Monotone change counter: bumps on instance creation, degradation, and
  /// eviction — cheap "did anything change" check for metrics publication.
  std::uint64_t StatsEpoch() const { return epoch_; }

  /// The instance for `ns` if it exists (no creation), else nullptr.
  const Detector* Peek(NamespaceId ns) const;
  /// Visit every live instance in ascending namespace order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [ns, inst] : instances_) fn(ns, *inst->detector);
  }
  /// Mutable visit (host::Ssd's slice-tick path needs the pre/post alarm
  /// transition per instance). The callback must not call back into the
  /// pool (no creations/evictions mid-iteration).
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (auto& [ns, inst] : instances_) fn(ns, *inst->detector);
  }

  /// Reset every instance's runtime state (power cycle / reboot): scores,
  /// tables, and history restart cold at each instance's *current* (possibly
  /// degraded) capacities; evicted instances stay evicted. Pressure history
  /// is cleared.
  void ResetAll();

 private:
  struct Instance {
    std::unique_ptr<Detector> detector;
    std::uint64_t last_active = 0;  ///< pool-wide activity sequence number
  };

  Detector& Create(NamespaceId ns);
  /// Shrink/evict until the modeled total fits the budget (or record
  /// kOverBudget). `creating` is the namespace being admitted — it can be
  /// degraded but not evicted mid-admission.
  void EnforceBudget(NamespaceId creating);
  void Touch(Instance& instance) { instance.last_active = ++activity_seq_; }

  DetectorConfig template_;
  DetectorPoolConfig config_;
  DecisionTree tree_;
  std::map<NamespaceId, std::unique_ptr<Instance>> instances_;
  PoolPressureReport pressure_;
  std::uint64_t activity_seq_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace insider::core
