#include "ftl/recovery_queue.h"

#include <cassert>

namespace insider::ftl {

std::optional<BackupEntry> RecoveryQueue::Push(Lba lba, nand::Ppa old_ppa,
                                               SimTime now) {
  std::optional<BackupEntry> evicted;
  while (capacity_ != 0 && live_ >= capacity_) {
    BackupEntry front = PopFront();
    if (front.old_ppa != nand::kInvalidPpa) {
      --live_;
      evicted = front;
      break;
    }
  }
  assert(old_ppa < id_of_.Size() && "PPA outside the id table");
  assert(!Guards(old_ppa) &&
         "a physical page can guard at most one displaced version");
  const auto id = static_cast<EntryId>(head_id_ + entries_.size());
  entries_.push_back(BackupEntry{lba, old_ppa, now});
  id_of_.Set(old_ppa, id);
  ++live_;
  return evicted;
}

std::optional<BackupEntry> RecoveryQueue::PopOldest() {
  while (!entries_.empty()) {
    BackupEntry e = PopFront();
    if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
    --live_;
    return e;
  }
  return std::nullopt;
}

bool RecoveryQueue::Relocate(nand::Ppa from_ppa, nand::Ppa to_ppa) {
  std::optional<std::size_t> offset = OffsetOf(from_ppa);
  if (!offset) return false;
  assert(to_ppa < id_of_.Size() && !Guards(to_ppa));
  const EntryId id = id_of_.Get(from_ppa);
  id_of_.Set(from_ppa, kNoId);
  entries_[*offset].old_ppa = to_ppa;
  id_of_.Set(to_ppa, id);
  return true;
}

bool RecoveryQueue::Drop(nand::Ppa ppa) {
  std::optional<std::size_t> offset = OffsetOf(ppa);
  if (!offset) return false;
  entries_[*offset].old_ppa = nand::kInvalidPpa;
  id_of_.Set(ppa, kNoId);
  --live_;
  return true;
}

}  // namespace insider::ftl
