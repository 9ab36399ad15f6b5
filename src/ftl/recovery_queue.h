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
// Entries are stored at the paper's Table III width: 12 bytes each (32-bit
// LBA, 32-bit PPA, 32-bit µs offset around the 64-bit time that opened the
// chunk holding it), in a ring of fixed-size chunks that grows and shrinks
// one chunk at a time and never reallocates what it holds. A chunk takes
// times up to 2^31 µs (~36 min) either side of its opening time, which the
// live path's GC-advanced clocks never leave; a push whose time does not
// fit opens a new chunk, so every SimTime comes back exact.
//
// GC may relocate a retained page before its entry expires, so the backup
// must follow the data. The queue keeps no per-page index: Push returns the
// entry's id, the FTL stores it in the retained page's P2L slot, and
// Guards / Relocate / Drop take that id back and confirm that the entry
// points at the page. Ids count chunk slots mod 2^32 - 1, so no id is ever
// all-ones (the empty P2L value); the slots a chunk opened early leaves
// unused are skipped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "common/io.h"
#include "common/time.h"
#include "ftl/page_id_table.h"
#include "nand/geometry.h"

namespace insider::ftl {

/// One backup, unpacked to the FTL's 64-bit widths.
struct BackupEntry {
  Lba lba = kInvalidLba;
  nand::Ppa old_ppa = nand::kInvalidPpa;
  SimTime written_at = 0;  ///< when the overwrite that displaced it happened
};

class RecoveryQueue {
 public:
  /// Entry ids live in P2L slots, so they are page ids.
  using EntryId = PageId;
  /// Entries per chunk: 4096 x 12 B = 48 KiB, below glibc's default mmap
  /// threshold (128 KiB), so chunks come from the heap's free lists.
  static constexpr std::uint32_t kChunkEntries = 4096;

  struct Pushed {
    EntryId id = kNoPageId;                ///< goes into the page's P2L slot
    std::optional<BackupEntry> evicted;    ///< force-released by capacity
  };

  /// `capacity` bounds DRAM use (paper Table III sizes it for 30 MB /
  /// 2,621,440 entries); 0 means unbounded.
  explicit RecoveryQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  RecoveryQueue(const RecoveryQueue& other);
  RecoveryQueue& operator=(const RecoveryQueue& other) {
    if (this != &other) *this = RecoveryQueue(other);
    return *this;
  }
  RecoveryQueue(RecoveryQueue&&) noexcept = default;
  RecoveryQueue& operator=(RecoveryQueue&&) noexcept = default;

  std::size_t Size() const { return live_; }
  bool Empty() const { return live_ == 0; }
  std::size_t Capacity() const { return capacity_; }

  /// Append a backup for an overwritten/trimmed LBA; `lba` and `old_ppa`
  /// must fit a page id. If the queue is at capacity the oldest entry is
  /// force-released first (returned so the FTL can mark its page
  /// reclaimable).
  Pushed Push(Lba lba, nand::Ppa old_ppa, SimTime now);

  /// True when ReleaseUpTo(horizon) would pop something (a tombstone
  /// included): the oldest entry was written at or before `horizon`.
  bool DueBy(SimTime horizon) const {
    return !chunks_.empty() && TimeOf(*chunks_.front(), head_) <= horizon;
  }

  /// Pop every entry with written_at <= horizon, invoking `release` on each.
  /// The FTL calls this with horizon = now - retention_window.
  template <typename Fn>
  void ReleaseUpTo(SimTime horizon, Fn&& release) {
    forced_since_release_ = false;
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

  /// True when PopOldest or a capacity eviction took the front since the
  /// last ReleaseUpTo. Entries are not pushed in time order (GC can advance
  /// one write's clock past the next write's), so a release pass may stop
  /// at a young front with older stragglers behind it; a forced pop can
  /// then leave such a straggler at the front until the next release pass.
  bool ForcedSinceRelease() const { return forced_since_release_; }

  /// Does entry `id` guard `ppa`? False for an id no live entry has, and
  /// for an entry that guards another page.
  bool Guards(EntryId id, nand::Ppa ppa) const {
    return Find(id, ppa) != nullptr;
  }

  /// GC moved a retained page: repoint entry `id`, which must guard
  /// `from_ppa`, to `to_ppa`. The id stays the same. Returns false if the
  /// entry does not guard from_ppa.
  bool Relocate(EntryId id, nand::Ppa from_ppa, nand::Ppa to_ppa);

  /// The page guarding a backup became unreadable (uncorrectable ECC): the
  /// backup is lost. Tombstones entry `id` in place if it guards `ppa`;
  /// pops skip tombstones.
  bool Drop(EntryId id, nand::Ppa ppa);

  /// Discard everything (power loss: the queue lives in DRAM). The rebuild
  /// path reconstructs entries from the OOB flash scan.
  void Clear();

  /// Roll back: walk entries newer than `horizon` from the back (newest)
  /// to the front, invoking `revert` on each, then discard them. Entries at
  /// or older than the horizon stay queued (their new versions are deemed
  /// safe). Returns the number of reverted entries.
  template <typename Fn>
  std::size_t RollBack(SimTime horizon, Fn&& revert) {
    std::size_t reverted = 0;
    while (!chunks_.empty() &&
           TimeOf(*chunks_.back(), chunks_.back()->end - 1) > horizon) {
      BackupEntry e = PopBack();
      if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
      --live_;
      revert(e);
      ++reverted;
    }
    return reverted;
  }

  /// Iterate live entries oldest-first with their ids (for the auditor).
  template <typename Fn>
  void ForEachWithId(Fn&& fn) const {
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      const Chunk& c = *chunks_[k];
      for (std::uint32_t i = k == 0 ? head_ : 0; i < c.end; ++i) {
        if (c.slots[i].ppa != kNoPageId) fn(IdAt(k, i), Unpack(c, i));
      }
    }
  }

  /// Iterate live entries oldest-first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachWithId([&fn](EntryId, const BackupEntry& e) { fn(e); });
  }

  /// Resident heap estimate: the chunks held (the spare included) and the
  /// ring's chunk directory.
  std::uint64_t ResidentBytes() const {
    const std::size_t held = chunks_.size() + (spare_ != nullptr ? 1 : 0);
    return held * sizeof(Chunk) + chunks_.size() * sizeof(chunks_[0]);
  }

  /// Bytes of DRAM this structure needs at a given occupancy, using the
  /// paper's 12-byte packed entry layout (4 B LBA + 4 B PPA + 4 B time).
  static constexpr std::size_t PackedEntryBytes() { return 12; }
  /// Bytes one entry occupies in a chunk.
  static constexpr std::size_t StoredEntryBytes() { return sizeof(Slot); }

 private:
  friend class FtlStateTamperer;  // starts the id counter near the wrap

  /// Ids run mod 2^32 - 1, so kNoPageId is never one.
  static constexpr std::uint64_t kIdModulus = kNoPageId;

  struct Slot {
    PageId lba;
    PageId ppa;          ///< kNoPageId marks a dropped entry (tombstone)
    std::uint32_t time;  ///< written_at, PackAround the chunk's center
  };
  static_assert(sizeof(Slot) == 12, "Table III's packed entry width");

  struct Chunk {
    SimTime center = 0;    ///< the push time that opened the chunk
    std::uint32_t end = 0; ///< slots [0, end) were pushed
    Slot slots[kChunkEntries];
  };

  static SimTime TimeOf(const Chunk& c, std::uint32_t i) {
    return UnpackAround(c.center, c.slots[i].time);
  }
  static BackupEntry Unpack(const Chunk& c, std::uint32_t i) {
    const Slot& s = c.slots[i];
    return {s.lba, s.ppa == kNoPageId ? nand::kInvalidPpa : s.ppa,
            TimeOf(c, i)};
  }
  /// Id of slot `i` of the `k`-th chunk from the front.
  EntryId IdAt(std::size_t k, std::uint32_t i) const {
    return static_cast<EntryId>(
        (front_id_ + static_cast<std::uint64_t>(k) * kChunkEntries + i) %
        kIdModulus);
  }
  /// The live slot entry `id` names when it guards `ppa`, else null.
  const Slot* Find(EntryId id, nand::Ppa ppa) const;
  Slot* Find(EntryId id, nand::Ppa ppa) {
    return const_cast<Slot*>(std::as_const(*this).Find(id, ppa));
  }
  /// Append an empty chunk whose offsets cover `now`.
  void OpenChunk(SimTime now);
  /// Drop the front chunk once its last slot was popped.
  void CloseFrontChunk();
  BackupEntry PopFront();
  BackupEntry PopBack();

  std::size_t capacity_ = 0;
  std::deque<std::unique_ptr<Chunk>> chunks_;  ///< oldest at front
  /// A closed chunk kept for the next open, so a queue that hovers at a
  /// chunk boundary does not allocate and free on every push.
  std::unique_ptr<Chunk> spare_;
  std::uint32_t head_ = 0;     ///< first unpopped slot of chunks_.front()
  std::uint64_t front_id_ = 0; ///< id of chunks_.front()'s slot 0, < kIdModulus
  std::size_t live_ = 0;       ///< pushed, not popped, not dropped
  bool forced_since_release_ = false;  ///< see ForcedSinceRelease()
};

}  // namespace insider::ftl
