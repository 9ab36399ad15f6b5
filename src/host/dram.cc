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
      // Entries at their stored width. A guarded page's entry id lives in
      // its P2L slot, so the queue keeps no per-page index.
      {"Recovery queue", ftl::RecoveryQueue::StoredEntryBytes(),
       ftl.recovery_queue_capacity},
  };
}

double TotalMegabytes(const std::vector<DramRow>& rows) {
  double total = 0.0;
  for (const DramRow& r : rows) total += r.Megabytes();
  return total;
}

}  // namespace insider::host
