#include "host/dram.h"

#include "core/counting_table.h"
#include "ftl/recovery_queue.h"

namespace insider::host {

std::vector<DramRow> PaperDramBudget() {
  return {
      {"Hash table", 42, 250'000},
      {"Counting table", core::CountingEntry::PackedBytes(), 1'000},
      {"Recovery queue", ftl::RecoveryQueue::PackedEntryBytes(), 2'621'440},
  };
}

std::vector<DramRow> ActualDramBudget(const core::DetectorConfig& detector,
                                      const ftl::FtlConfig& ftl) {
  return {
      // Key slots at the key table's maximum load, and run slots with
      // their recency links.
      {"Hash table", core::CountingTable::KeyBytesAtMaxLoad(),
       detector.table.max_hash_keys},
      {"Counting table", core::CountingTable::RunSlotBytes(),
       detector.table.max_entries},
      {"Recovery queue", sizeof(ftl::BackupEntry),
       ftl.recovery_queue_capacity},
      // One entry id per physical page, fully materialized (worst case:
      // chunks are allocated only where retained pages live).
      {"Recovery queue index", ftl::RecoveryQueue::IndexEntryBytes(),
       ftl.geometry.TotalPages()},
  };
}

double TotalMegabytes(const std::vector<DramRow>& rows) {
  double total = 0.0;
  for (const DramRow& r : rows) total += r.Megabytes();
  return total;
}

}  // namespace insider::host
