// The counting table (paper Fig. 3): run-length bookkeeping of reads and
// overwrites, the data structure behind all six features.
//
// Each entry records one contiguous read run: (Time, LBA, RL, WL) — the time
// slice of the last activity, the run's starting LBA, the total length of
// consecutively read blocks, and how many of them have since been
// overwritten. A per-LBA hash index gives O(1) access from a request's LBA
// to its run (paper Table III sizes it at 250,000 keys / 10 MB).
//
// Layout (all state is flat vectors of trivially copyable slots, so a copy of
// the table is an independent value):
//   run slots   — one CountingEntry per live run plus `older`/`newer` slot
//                 ids; free slots form a list through `newer`.
//   recency list— those ids, ordered by (time, order of last relink): the
//                 oldest run is the eviction and window-slide victim.
//   key table   — open addressing (linear probing, backward-shift
//                 deletion) from LBA to its read slice, block state and
//                 owning run slot, at most half full. A multiplicative hash
//                 picks the home of each aligned group of LBAs, so a run's
//                 keys sit in consecutive slots.
// Run adjacency comes from the key table: a run ends at `lba` exactly when
// key `lba - 1` exists, and a run's right neighbour owns key `lba + rl`.
//
// The basic operations mirror Fig. 3(b):
//   NewEntry      — a read starts a new run.
//   UpdateEntryR  — a read adjacent to a run's tail extends RL.
//   MergeEntry    — a read joins two runs into one.
//   UpdateEntryW  — a write to a tracked (read) block counts an overwrite
//                   and extends the contiguous overwrite frontier.
//   SplitEntry    — a write landing mid-run splits the run so WL always
//                   measures a *contiguous* overwritten stretch (AVGWIO's
//                   run-length semantics).
//
// Overwrite semantics (paper footnote 1 + §III-A): a write counts as an
// overwrite only if the block was read within the window and has not already
// been counted since that read. Re-reading re-arms the block. This is what
// makes 7-pass data wiping score a low OWST: only the first of its seven
// passes per read is an overwrite.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/io.h"

namespace insider::core {

/// Slice index: virtual time divided by the slice length.
using SliceIndex = std::int64_t;

struct CountingEntry {
  SliceIndex time = 0;  ///< slice of creation or last update
  Lba lba = 0;          ///< starting LBA of the read run
  std::uint32_t rl = 0; ///< read-run length in blocks
  std::uint32_t wl = 0; ///< overwritten blocks within the run
  /// Internal: next LBA expected to continue the contiguous overwrite run.
  Lba ow_next = kInvalidLba;

  /// Paper Table III packs an entry into 12 bytes.
  static constexpr std::size_t PackedBytes() { return 12; }
};

/// Counters accumulated over one time slice and consumed by the feature
/// extractor at the slice boundary.
struct SliceCounters {
  std::uint64_t read_blocks = 0;
  std::uint64_t write_blocks = 0;
  std::uint64_t overwrites = 0;  ///< OWIO numerator
};

class CountingTable {
 public:
  struct Config {
    std::size_t max_entries = 1000;      ///< paper Table III
    std::size_t max_hash_keys = 250'000; ///< paper Table III
    /// Paper footnote 1: a write is an overwrite only if the block was read
    /// within the last N slices. The detector mirrors its window here.
    std::size_t window_slices = 10;
  };

  CountingTable();
  explicit CountingTable(const Config& config);

  /// Record a read request (header only). `slice` is the current slice.
  /// The blocks [lba, lba + length) must not wrap or include kInvalidLba.
  void OnRead(Lba lba, std::uint32_t length, SliceIndex slice);

  /// Record a write request; updates overwrite accounting.
  void OnWrite(Lba lba, std::uint32_t length, SliceIndex slice);

  /// Accumulated counters for the slice in progress.
  const SliceCounters& Counters() const { return counters_; }

  /// Close the current slice: returns its counters and resets them.
  SliceCounters EndSlice();

  /// Drop entries whose last activity is before `min_slice` (window slide).
  void DropOlderThan(SliceIndex min_slice);

  /// Reduce the table's capacity caps in place (detector-pool DRAM pressure):
  /// lowers max_entries/max_hash_keys to the given values (never raises them;
  /// floors of 1 apply) and evicts least-recently-active runs until the live
  /// state fits, then shrinks the slot arrays to the live state. The window
  /// is untouched, so surviving entries behave exactly as before — the loss
  /// is bounded tracking capacity, not semantics.
  void ShrinkTo(std::size_t max_entries, std::size_t max_hash_keys);

  /// AVGWIO numerator: mean WL over entries with at least one overwrite.
  double AverageOverwriteRunLength() const;

  std::size_t EntryCount() const { return live_runs_; }
  std::size_t KeyCount() const { return key_count_; }
  const Config& Cfg() const { return config_; }

  /// DRAM of one run slot.
  static constexpr std::size_t RunSlotBytes() { return sizeof(RunSlot); }
  /// DRAM per tracked key: one key slot at the key table's maximum load.
  static constexpr std::size_t KeyBytesAtMaxLoad() {
    return sizeof(KeySlot) * kMaxLoadDen / kMaxLoadNum;
  }

  /// Visit entries (start-LBA order) — for tests and debugging.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const CountingEntry* e : EntriesByLba()) fn(*e);
  }

  /// First invariant violation, or empty if consistent (property tests).
  std::string CheckInvariants() const;

 private:
  /// Per-LBA tracking state stored in the key table.
  enum class BlockState : std::uint8_t {
    kReadTracked,  ///< read within the window; next write is an overwrite
    kOverwritten,  ///< already counted; writes don't re-count until re-read
  };
  using SlotId = std::uint32_t;
  static constexpr SlotId kNil = ~SlotId{0};

  struct RunSlot {
    CountingEntry entry;  ///< rl == 0 marks a free slot
    SlotId older = kNil;  ///< recency list (free list: unused)
    SlotId newer = kNil;  ///< recency list (free list: next free slot)
  };
  struct KeySlot {
    Lba lba = kInvalidLba;  ///< kInvalidLba marks an empty slot
    SliceIndex read_slice = 0;  ///< when the block was last read (footnote 1)
    SlotId run = kNil;          ///< owning run slot
    BlockState state = BlockState::kReadTracked;
  };
  static_assert(std::is_trivially_copyable_v<RunSlot> &&
                std::is_trivially_copyable_v<KeySlot>);
  /// The key table is at most kMaxLoadNum/kMaxLoadDen full.
  static constexpr std::size_t kMaxLoadNum = 1;
  static constexpr std::size_t kMaxLoadDen = 2;
  static constexpr std::size_t kMinKeySlots = 32;
  /// Keys of 2^kGroupBits consecutive LBAs share one home neighbourhood.
  static constexpr int kGroupBits = 4;
  static_assert(kMinKeySlots > (std::size_t{1} << kGroupBits));

  // Run slots and the recency list.
  SlotId NewRun(const CountingEntry& entry);
  /// Return a run's slot to the free list; its keys are the caller's.
  void FreeRun(SlotId id);
  /// Drop a run and its keys.
  void EraseRun(SlotId id);
  void Unlink(SlotId id);
  /// Link after every run whose time is <= this run's, so runs of equal
  /// time keep their relink order: O(1) when the time is the newest.
  void LinkByTime(SlotId id);
  /// Update a run's last-activity slice (and its recency position).
  void TouchRun(SlotId id, SliceIndex slice);
  /// Evict the least-recently-updated run (capacity pressure).
  void EvictOldest();
  void MaybeMergeWithNext(SlotId left_id);

  // Key table.
  std::size_t Home(Lba lba) const;
  KeySlot* FindKey(Lba lba);
  const KeySlot* FindKey(Lba lba) const;
  void InsertKey(Lba lba, SliceIndex read_slice, SlotId run);
  void EraseKey(Lba lba);
  void RekeyRange(Lba from, std::uint32_t count, SlotId run);
  /// Rebuild the key table at `slots` (a power of two) slots.
  void RehashKeys(std::size_t slots);
  /// Smallest key-table size that holds `keys` within the maximum load.
  static std::size_t KeySlotsFor(std::size_t keys);

  void HandleReadBlock(Lba lba, SliceIndex slice);
  void HandleWriteBlock(Lba lba, SliceIndex slice);
  std::vector<const CountingEntry*> EntriesByLba() const;

  Config config_;
  std::vector<RunSlot> runs_;
  SlotId free_head_ = kNil;
  SlotId oldest_ = kNil;
  SlotId newest_ = kNil;
  std::size_t live_runs_ = 0;
  std::vector<KeySlot> keys_;  ///< size 0 or a power of two
  std::size_t key_count_ = 0;
  int key_shift_ = 64;  ///< 64 - log2(keys_.size())
  SliceCounters counters_;
};

}  // namespace insider::core
