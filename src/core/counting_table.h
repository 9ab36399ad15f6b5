// The counting table (paper Fig. 3): run-length bookkeeping of reads and
// overwrites, the data structure behind all six features.
//
// Each entry records one contiguous read run: (Time, LBA, RL, WL) — the time
// slice of the last activity, the run's starting LBA, the total length of
// consecutively read blocks, and how many of them have since been
// overwritten. A per-LBA hash index gives O(1) access from a request's LBA
// to its run (paper Table III sizes it at 250,000 keys / 10 MB).
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
#include <map>
#include <string>
#include <unordered_map>

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
  /// Internal: position in the table's eviction time index.
  std::multimap<SliceIndex, Lba>::iterator time_it{};

  /// Paper Table III packs an entry into 12 bytes.
  static constexpr std::size_t PackedBytes() { return 12; }
};

/// Modeled DRAM of one hash-index entry at this implementation's sizes: key
/// + value + ~2 pointers of bucket overhead, a fair model for a
/// closed-addressing table. Table III's bench row and the detector pool's
/// budget both price the index with it.
constexpr std::size_t HashIndexEntryBytes() {
  return sizeof(Lba) + sizeof(std::uint64_t) + 2 * sizeof(void*);
}

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
  /// state fits. The window is untouched, so surviving entries behave exactly
  /// as before — the loss is bounded tracking capacity, not semantics.
  void ShrinkTo(std::size_t max_entries, std::size_t max_hash_keys);

  /// AVGWIO numerator: mean WL over entries with at least one overwrite.
  double AverageOverwriteRunLength() const;

  std::size_t EntryCount() const { return entries_.size(); }
  std::size_t KeyCount() const { return index_.size(); }
  const Config& Cfg() const { return config_; }

  /// Visit entries (start-LBA order) — for tests and debugging.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [start, e] : entries_) fn(e);
  }

  /// First invariant violation, or empty if consistent (property tests).
  std::string CheckInvariants() const;

 private:
  /// Per-LBA tracking state stored in the hash index.
  enum class BlockState : std::uint8_t {
    kReadTracked,  ///< read within the window; next write is an overwrite
    kOverwritten,  ///< already counted; writes don't re-count until re-read
  };
  struct Key {
    Lba run_start;  ///< owning entry (its map key)
    BlockState state;
    SliceIndex read_slice;  ///< when the block was last read (footnote 1)
  };

  using EntryMap = std::map<Lba, CountingEntry>;

  EntryMap::iterator FindRunContaining(Lba lba);
  void EraseEntry(EntryMap::iterator it);
  /// Update an entry's last-activity slice (and its time-index position).
  void TouchEntry(EntryMap::iterator it, SliceIndex slice);
  /// Evict the least-recently-updated entry (capacity pressure).
  void EvictOldest();
  void RekeyRange(Lba from, std::uint32_t count, Lba new_start);
  void HandleReadBlock(Lba lba, SliceIndex slice);
  void HandleWriteBlock(Lba lba, SliceIndex slice);
  void MaybeMergeWithNext(EntryMap::iterator it);

  Config config_;
  EntryMap entries_;  ///< keyed by run start LBA
  std::unordered_map<Lba, Key> index_;
  /// Last-activity index: O(log n) eviction and window slides.
  std::multimap<SliceIndex, Lba> by_time_;
  SliceCounters counters_;
};

}  // namespace insider::core
