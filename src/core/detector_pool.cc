#include "core/detector_pool.h"

#include <algorithm>
#include <limits>

namespace insider::core {

namespace {

/// history_limit 0 means "unbounded" (offline replay); for budgeting it is
/// priced at the firmware default ring so opting out of the cap never
/// manufactures free DRAM.
constexpr std::size_t kUnboundedHistoryPriceRecords = 4096;

/// Heap tail of one SliceRecord's tree_path (budgeted flat: real paths are a
/// handful of int32 hops).
constexpr std::size_t kTreePathBudgetBytes = 32;

std::size_t PricedHistoryRecords(const DetectorConfig& config) {
  return config.history_limit == 0 ? kUnboundedHistoryPriceRecords
                                   : config.history_limit;
}

}  // namespace

std::size_t EstimateDetectorBytes(const DetectorConfig& config) {
  // The Table III shapes at this implementation's structure sizes — the
  // same per-structure model host::ActualDramBudget prices for the bench.
  std::size_t bytes =
      CountingTable::KeyBytesAtMaxLoad() * config.table.max_hash_keys;
  bytes += CountingTable::RunSlotBytes() * config.table.max_entries;
  // Sliding-window state: one vote bit and one OWIO value per window slice.
  bytes += (sizeof(bool) + sizeof(std::uint64_t)) * config.window_slices;
  bytes += (sizeof(SliceRecord) + kTreePathBudgetBytes) *
           PricedHistoryRecords(config);
  return bytes;
}

const char* PoolPressureActionName(PoolPressureAction action) {
  switch (action) {
    case PoolPressureAction::kShrinkHistory:
      return "shrink-history";
    case PoolPressureAction::kShrinkTable:
      return "shrink-table";
    case PoolPressureAction::kEvictInstance:
      return "evict-instance";
    case PoolPressureAction::kOverBudget:
      return "over-budget";
  }
  return "?";
}

DetectorPool::DetectorPool(const DetectorConfig& detector_template,
                           const DetectorPoolConfig& config, DecisionTree tree)
    : template_(detector_template), config_(config), tree_(std::move(tree)) {
  // The default namespace exists from birth: untagged traffic, the firmware
  // tick, and Ssd::Detector() all need an instance before any I/O arrives.
  Create(0);
}

Detector& DetectorPool::Create(NamespaceId ns) {
  auto instance = std::make_unique<Instance>();
  instance->detector = std::make_unique<Detector>(template_, tree_);
  instance->last_active = ++activity_seq_;
  instances_[ns] = std::move(instance);
  ++epoch_;
  EnforceBudget(ns);
  return *instances_.at(ns)->detector;
}

Detector& DetectorPool::ForNamespace(NamespaceId ns) {
  NamespaceId effective = config_.per_namespace ? ns : 0;
  auto it = instances_.find(effective);
  if (it == instances_.end()) return Create(effective);
  Touch(*it->second);
  return *it->second->detector;
}

void DetectorPool::OnRequest(NamespaceId ns, const IoRequest& request) {
  ForNamespace(ns).OnRequest(request);
}

void DetectorPool::AdvanceAllTo(SimTime now) {
  for (auto& [ns, instance] : instances_) instance->detector->AdvanceTo(now);
}

SimTime DetectorPool::NextSliceEnd() const {
  SimTime next = std::numeric_limits<SimTime>::max();
  for (const auto& [ns, instance] : instances_) {
    next = std::min(next, instance->detector->NextSliceEnd());
  }
  return next;
}

bool DetectorPool::AnyAlarmActive() const {
  for (const auto& [ns, instance] : instances_) {
    if (instance->detector->AlarmActive()) return true;
  }
  return false;
}

std::optional<SimTime> DetectorPool::FirstAlarmTime() const {
  std::optional<SimTime> first;
  for (const auto& [ns, instance] : instances_) {
    std::optional<SimTime> t = instance->detector->FirstAlarmTime();
    if (t && (!first || *t < *first)) first = t;
  }
  return first;
}

std::size_t DetectorPool::EstimatedBytes() const {
  std::size_t total = 0;
  for (const auto& [ns, instance] : instances_) {
    total += EstimateDetectorBytes(instance->detector->Config());
  }
  return total;
}

const Detector* DetectorPool::Peek(NamespaceId ns) const {
  NamespaceId effective = config_.per_namespace ? ns : 0;
  auto it = instances_.find(effective);
  return it == instances_.end() ? nullptr : it->second->detector.get();
}

void DetectorPool::ResetAll() {
  // Each instance restarts cold at its *current* capacities: degradation
  // survives a reboot (the DRAM it shed is still owed to other tenants).
  for (auto& [ns, instance] : instances_) instance->detector->Reset();
  pressure_ = PoolPressureReport{};
  ++epoch_;
}

void DetectorPool::EnforceBudget(NamespaceId creating) {
  if (config_.dram_budget_bytes == 0) return;
  while (EstimatedBytes() > config_.dram_budget_bytes) {
    // Largest shrinkable instance first (ties: lowest namespace), so the
    // least-degraded tenant pays before anyone is evicted.
    Instance* victim = nullptr;
    NamespaceId victim_ns = 0;
    std::size_t victim_bytes = 0;
    for (auto& [ns, instance] : instances_) {
      const DetectorConfig& c = instance->detector->Config();
      bool shrinkable =
          PricedHistoryRecords(c) > config_.min_history_limit ||
          c.table.max_entries > config_.min_table_entries ||
          c.table.max_hash_keys > config_.min_hash_keys;
      if (!shrinkable) continue;
      std::size_t bytes = EstimateDetectorBytes(c);
      if (victim == nullptr || bytes > victim_bytes) {
        victim = instance.get();
        victim_ns = ns;
        victim_bytes = bytes;
      }
    }

    std::size_t before = EstimatedBytes();
    if (victim != nullptr) {
      Detector& d = *victim->detector;
      const DetectorConfig& c = d.Config();
      std::size_t history = PricedHistoryRecords(c);
      if (history > config_.min_history_limit) {
        d.SetHistoryLimit(std::max(history / 2, config_.min_history_limit));
        pressure_.events.push_back({PoolPressureAction::kShrinkHistory,
                                    victim_ns, before, EstimatedBytes()});
      } else {
        d.ShrinkTableTo(
            std::max(c.table.max_entries / 2, config_.min_table_entries),
            std::max(c.table.max_hash_keys / 2, config_.min_hash_keys));
        pressure_.events.push_back({PoolPressureAction::kShrinkTable,
                                    victim_ns, before, EstimatedBytes()});
      }
      ++epoch_;
      continue;
    }

    // Every instance is at its floors: evict the least-recently-active
    // unpinned instance (never namespace 0, never the one being admitted).
    if (config_.evict_under_pressure) {
      auto evict_it = instances_.end();
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (auto it = instances_.begin(); it != instances_.end(); ++it) {
        if (it->first == 0 || it->first == creating) continue;
        if (it->second->last_active < oldest) {
          oldest = it->second->last_active;
          evict_it = it;
        }
      }
      if (evict_it != instances_.end()) {
        NamespaceId ns = evict_it->first;
        instances_.erase(evict_it);
        ++pressure_.evictions;
        ++epoch_;
        pressure_.events.push_back({PoolPressureAction::kEvictInstance, ns,
                                    before, EstimatedBytes()});
        continue;
      }
    }

    // Floors everywhere and nothing evictable: fail open, loudly.
    ++pressure_.over_budget;
    ++epoch_;
    pressure_.events.push_back(
        {PoolPressureAction::kOverBudget, creating, before, before});
    break;
  }
}

}  // namespace insider::core
