// Write-ahead mapping journal: the durable record stream that lets
// RebuildFromNand replay DRAM state transitions instead of rescanning the
// whole device (DESIGN.md §13).
//
// Every mutating FTL op appends a compact logical redo record; records are
// batched `records_per_page` to a metadata page and flushed to one of two
// reserved journal regions (double-buffered by checkpoint epoch: epoch e
// writes region e % 2, and a region is erased only when the *next* committed
// checkpoint supersedes its records). Each flushed page is stamped with a
// hash of (epoch, position, record batch); at rebuild the stamp is checked
// against the media page, so a torn flush — power cut or an injected
// metadata program fail mid-batch — truncates the replayable tail at the
// first invalid page instead of corrupting it.
//
// Simulation trick, same as the checkpoint body: the record *contents* are
// kept as a DRAM side-copy gated on media validity. The media pages carry
// only the validation stamp; a page whose media copy is missing, burned, or
// mis-stamped contributes nothing to replay. This models a real journal
// without serializing byte layouts, while keeping torn-write detection
// honest (it is driven entirely by the NAND state).
#pragma once

#include <cstdint>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "ftl/ftl_types.h"
#include "nand/flash_array.h"

namespace insider::ftl {

/// What kind of DRAM state transition a journal record replays.
enum class JournalOpKind : std::uint8_t {
  kMap,            ///< lba now maps to ppa (host write / tombstone / restore)
  kTrim,           ///< lba unmapped with no tombstone page
  kBurn,           ///< program fail consumed ppa (page bad, seq consumed)
  kRelocate,       ///< GC moved a live page ppa -> ppa2 (class-preserving)
  kDrop,           ///< GC lost the live page at ppa to media errors
  kEraseIntent,    ///< about to erase block `ppa` (flushed *before* the erase)
  kRetireBlock,    ///< block `ppa` left service (erase fail / drained retire)
  kRelease,        ///< ReleaseExpired(t1) performed releases/prunes/trim aging
  kForcedRelease,  ///< space pressure released the oldest backup at t1
  kStoreEvict,     ///< space pressure evicted `ppa` archived pages at t1
  kRollback,       ///< full rollback to detect time t1 remapped the device
};

/// One packed redo record (~40 B modeled on media; see
/// CheckpointConfig::journal_records_per_page). Field use by kind:
///   kMap        lba, ppa (new page), seq, t1 = written_at, t2 = displacement
///               time for the old version, flag = tombstone
///   kTrim       lba, t1 = trim time
///   kBurn       ppa, seq
///   kRelocate   ppa = src, ppa2 = dst, seq = dst OOB seq
///   kDrop       ppa = src
///   kEraseIntent/kRetireBlock  ppa = global block id, seq = erase count
///               before the erase (replay compares it against the media
///               erase count to decide whether the erase landed)
///   kRelease / kForcedRelease / kStoreEvict  t1 = op time; ppa = batch size
///   kRollback   t1 = detection time handed to RollBack
struct JournalRecord {
  JournalOpKind kind = JournalOpKind::kMap;
  bool flag = false;
  Lba lba = 0;
  nand::Ppa ppa = nand::kInvalidPpa;
  nand::Ppa ppa2 = nand::kInvalidPpa;
  std::uint64_t seq = 0;
  SimTime t1 = 0;
  SimTime t2 = 0;
};

class MappingJournal {
 public:
  /// `region_a` / `region_b` are global block ids (chip * blocks_per_chip +
  /// block) of the two reserved journal regions; the array must already know
  /// them as metadata blocks. A default-constructed journal is disabled.
  MappingJournal() = default;
  MappingJournal(nand::FlashArray* nand, std::vector<std::uint64_t> region_a,
                 std::vector<std::uint64_t> region_b,
                 std::uint32_t records_per_page);

  bool Enabled() const { return nand_ != nullptr; }

  void Append(const JournalRecord& rec) { pending_.push_back(rec); }
  std::size_t PendingCount() const { return pending_.size(); }

  /// Pending records live in DRAM; a power cut destroys them. Rebuild calls
  /// this before replaying so only media-durable pages contribute (the lost
  /// records' effects are recovered by the delta OOB scan instead).
  void DropPending() { pending_.clear(); }

  /// Pages the active region can hold / has consumed (burned slots count).
  std::uint32_t CapacityPages() const;
  std::uint32_t UsedPages() const { return next_position_; }
  /// Fraction of the active region consumed — the pre-emptive checkpoint
  /// trigger reads this.
  double UsageFraction() const;

  /// Flush every pending record into stamped metadata pages at `now`,
  /// chaining program completions into `*complete`. Returns false when the
  /// flush could not be made fully durable: power-cut probe fired
  /// ("journal.flush"), a burned slot redrive ran the region out of pages,
  /// or the region overflowed. Un-flushed records stay pending. Callers that
  /// need durability before a destructive act (the GC erase-intent protocol)
  /// must not proceed on false.
  bool Flush(SimTime now, SimTime* complete, FtlStats* stats);

  /// Begin checkpoint epoch `epoch`: switch to region epoch % 2, erase it
  /// (superseded records from epoch - 2 die here), and drop every pending
  /// and durable record — the just-committed checkpoint covers them.
  void StartEpoch(std::uint64_t epoch, SimTime now, SimTime* complete);

  std::uint64_t ActiveEpoch() const { return epoch_; }

  /// Media-validated replayable tail for a rebuild that restored checkpoint
  /// `expected_epoch`. Walks durable pages in order and stops at the first
  /// page whose media copy is missing, burned, mis-stamped, or tagged with a
  /// different epoch. `pages_read` is the modeled read cost (valid pages
  /// plus one horizon probe); `region_full` reports that the active region
  /// has no free page left — the overflow marker that forces the caller to
  /// fall back to a full OOB scan (an un-journaled erase is only possible in
  /// that state).
  struct Tail {
    std::vector<JournalRecord> records;
    std::uint64_t pages_read = 0;
    bool region_full = false;
  };
  Tail ValidTail(std::uint64_t expected_epoch) const;

 private:
  struct DurablePage {
    std::uint64_t epoch = 0;
    std::uint32_t position = 0;  ///< page index within the region
    std::uint64_t stamp = 0;
    std::vector<JournalRecord> records;
  };

  nand::Ppa PpaOfPosition(std::uint32_t position) const;
  static std::uint64_t StampOf(std::uint64_t epoch, std::uint32_t position,
                               const std::vector<JournalRecord>& batch);

  nand::FlashArray* nand_ = nullptr;
  std::vector<std::uint64_t> regions_[2];
  std::uint32_t records_per_page_ = 1;
  std::uint64_t epoch_ = 0;
  std::uint32_t next_position_ = 0;
  bool overflow_noted_ = false;  ///< journal_overflows counted once per epoch
  std::vector<JournalRecord> pending_;
  std::vector<DurablePage> durable_;
};

}  // namespace insider::ftl
