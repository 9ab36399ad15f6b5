// SSD-Insider's recovery queue (paper Fig. 5).
//
// Every time the host overwrites or trims a mapped LBA, the FTL appends a
// backup entry (LBA, old PPA, timestamp) instead of immediately invalidating
// the old physical page. Entries older than the retention window are
// *released* — their pages become ordinary invalid pages the GC may reclaim.
// On a ransomware alarm at time t, entries younger than t - window are
// replayed back-to-front to roll the mapping table back, which restores the
// device to its state of 10 seconds earlier without copying any data.
//
// GC may relocate a retained page before its entry expires, so the backup
// must follow the data. Entries sit in a FIFO deque; a lazily chunked
// per-PPA table holds each guarded page's entry id (no hashing), and an
// entry id is `head_id_ + offset` into the deque, kept mod 2^32.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/io.h"
#include "common/lazy_table.h"
#include "common/time.h"
#include "nand/geometry.h"

namespace insider::ftl {

struct BackupEntry {
  Lba lba = kInvalidLba;
  nand::Ppa old_ppa = nand::kInvalidPpa;
  SimTime written_at = 0;  ///< when the overwrite that displaced it happened
};

class RecoveryQueue {
 public:
  /// An empty queue that indexes no PPA (a snapshot slot to copy into).
  RecoveryQueue() = default;
  /// `ppa_count` sizes the per-PPA id table (the device's TotalPages).
  /// `capacity` bounds DRAM use (paper Table III sizes it for 30 MB /
  /// 2,621,440 entries); 0 means unbounded. Ids are 32-bit, so the live
  /// span of the deque must stay below 2^32 entries.
  RecoveryQueue(std::size_t ppa_count, std::size_t capacity)
      : capacity_(capacity), id_of_(ppa_count, kNoId) {}

  RecoveryQueue(const RecoveryQueue& other)
      : capacity_(other.capacity_),
        entries_(other.entries_),
        id_of_(other.id_of_.Clone()),
        head_id_(other.head_id_),
        live_(other.live_) {}
  RecoveryQueue& operator=(const RecoveryQueue& other) {
    if (this != &other) *this = RecoveryQueue(other);
    return *this;
  }
  RecoveryQueue(RecoveryQueue&&) noexcept = default;
  RecoveryQueue& operator=(RecoveryQueue&&) noexcept = default;

  std::size_t Size() const { return live_; }
  bool Empty() const { return live_ == 0; }
  std::size_t Capacity() const { return capacity_; }

  /// Append a backup for an overwritten/trimmed LBA. If the queue is at
  /// capacity the oldest entry is force-released first (returned so the FTL
  /// can mark its page reclaimable).
  std::optional<BackupEntry> Push(Lba lba, nand::Ppa old_ppa, SimTime now);

  /// True when ReleaseUpTo(horizon) would pop something (a tombstone
  /// included): the oldest entry was written at or before `horizon`.
  bool DueBy(SimTime horizon) const {
    return !entries_.empty() && entries_.front().written_at <= horizon;
  }

  /// Pop every entry with written_at <= horizon, invoking `release` on each.
  /// The FTL calls this with horizon = now - retention_window.
  template <typename Fn>
  void ReleaseUpTo(SimTime horizon, Fn&& release) {
    while (DueBy(horizon)) {
      BackupEntry e = PopFront();
      if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
      --live_;
      release(e);
    }
  }

  /// Pop the oldest entry regardless of age. Used when the device is under
  /// space pressure and must sacrifice recoverability to accept writes.
  std::optional<BackupEntry> PopOldest();

  /// GC moved a retained page: repoint the backup entry that guards
  /// `from_ppa` to `to_ppa`. Returns false if no entry guards from_ppa.
  bool Relocate(nand::Ppa from_ppa, nand::Ppa to_ppa);

  /// The page guarding a backup became unreadable (uncorrectable ECC): the
  /// backup is lost. Tombstones the entry in place; pops skip tombstones.
  bool Drop(nand::Ppa ppa);

  /// Is some entry currently guarding this PPA? The id table's answer is
  /// confirmed against the entry it names, so a table out of step with the
  /// entries reads as unguarded and the auditor flags the page.
  bool Guards(nand::Ppa ppa) const { return OffsetOf(ppa).has_value(); }

  /// Discard everything (power loss: the queue lives in DRAM). The rebuild
  /// path reconstructs entries from the OOB flash scan.
  void Clear() {
    entries_.clear();
    id_of_.Assign(id_of_.Size(), kNoId);
    head_id_ = 0;
    live_ = 0;
  }

  /// Roll back: walk entries newer than `horizon` from the back (newest)
  /// to the front, invoking `revert` on each, then discard them. Entries at
  /// or older than the horizon stay queued (their new versions are deemed
  /// safe). Returns the number of reverted entries.
  template <typename Fn>
  std::size_t RollBack(SimTime horizon, Fn&& revert) {
    std::size_t reverted = 0;
    while (!entries_.empty() && entries_.back().written_at > horizon) {
      BackupEntry e = entries_.back();
      Unindex(e);
      entries_.pop_back();
      if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
      --live_;
      revert(e);
      ++reverted;
    }
    return reverted;
  }

  /// Iterate live entries oldest-first (for tests and DRAM accounting).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const BackupEntry& e : entries_) {
      if (e.old_ppa != nand::kInvalidPpa) fn(e);
    }
  }

  /// Resident heap estimate: the queued entries (tombstones included) plus
  /// the id table's directory and materialized chunks.
  std::uint64_t ResidentBytes() const {
    return entries_.size() * sizeof(BackupEntry) + id_of_.ResidentBytes();
  }

  /// Bytes of DRAM this structure needs at a given occupancy, using the
  /// paper's 12-byte packed entry layout (4 B LBA + 4 B PPA + 4 B time).
  static constexpr std::size_t PackedEntryBytes() { return 12; }
  /// Bytes per physical page of the entry-id table.
  static constexpr std::size_t IndexEntryBytes() { return sizeof(EntryId); }

 private:
  using EntryId = std::uint32_t;
  static constexpr EntryId kNoId = 0xFFFFFFFFu;

  /// Deque offset of the entry guarding `ppa`, if any.
  std::optional<std::size_t> OffsetOf(nand::Ppa ppa) const {
    if (ppa >= id_of_.Size()) return std::nullopt;
    const EntryId id = id_of_.Get(ppa);
    if (id == kNoId) return std::nullopt;
    const std::size_t offset = static_cast<EntryId>(id - head_id_);
    if (offset >= entries_.size() || entries_[offset].old_ppa != ppa) {
      return std::nullopt;
    }
    return offset;
  }
  void Unindex(const BackupEntry& e) {
    if (e.old_ppa != nand::kInvalidPpa) id_of_.Set(e.old_ppa, kNoId);
  }
  BackupEntry PopFront() {
    BackupEntry e = entries_.front();
    Unindex(e);
    entries_.pop_front();
    ++head_id_;
    return e;
  }

  std::size_t capacity_ = 0;
  std::deque<BackupEntry> entries_;  ///< oldest at front
  /// PPA -> id of the entry guarding it, kNoId when none. An old PPA
  /// appears at most once (a physical page holds exactly one displaced
  /// version).
  common::LazyTable<EntryId> id_of_;
  EntryId head_id_ = 0;  ///< id of entries_.front(); wraps mod 2^32
  std::size_t live_ = 0;  ///< entries_ minus tombstones
};

}  // namespace insider::ftl
