// Garbage collection, extracted from the mapping core.
//
// One engine instance serves three callers with the same relocation
// mechanics (retained backups honored identically everywhere):
//
//   * EnsureFreeSpace — the foreground path. A host write that finds the
//     free pool at the hard floor (FtlConfig::gc_reserve_blocks) blocks
//     here, inline, until GC reclaims room — this is the write-stall path
//     FtlStats::gc_stall_time measures.
//   * BackgroundCollect — the watermark path. When the free pool dips to
//     gc_low_watermark_blocks the firmware scheduler runs bounded
//     reclamation steps during host-idle gaps, refilling the pool to the
//     high watermark so foreground writes never reach the floor.
//   * CollectCheap — the idle path (PageFtl::IdleCollect). Takes only
//     victims whose copy cost is below a caller cap; expensive relocation
//     stays with whoever actually needs the space.
//
// Victim choice is delegated to the pluggable VictimPolicy; the engine owns
// only the mechanics: copy valid/retained/archived pages to fresh frontiers
// (through the shared AllocationPolicy), repoint mappings, recovery-queue
// guards and version-store records, absorb uncorrectable-ECC losses, erase,
// and recycle the block.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace insider::ftl {

class PageFtl;

class GcEngine {
 public:
  explicit GcEngine(PageFtl& ftl) : ftl_(ftl) {}

  /// Foreground: run GC until the free pool exceeds the hard floor,
  /// accumulating NAND time into `now` (the caller's write blocks for all
  /// of it). Falls back to sacrificing the oldest backups — then the oldest
  /// archived versions — when nothing is reclaimable. Returns false if the
  /// device is genuinely full.
  bool EnsureFreeSpace(SimTime& now);

  /// Background: reclaim up to `max_blocks` blocks, stopping early once the
  /// free pool reaches the high watermark. Never sacrifices backups — space
  /// pressure that severe belongs to the foreground path. Returns blocks
  /// reclaimed.
  std::size_t BackgroundCollect(SimTime now, std::size_t max_blocks);

  /// Idle: reclaim up to `max_blocks` blocks whose copy cost is at most
  /// `max_movable` live pages each. Returns blocks reclaimed.
  std::size_t CollectCheap(SimTime now, std::size_t max_blocks,
                           std::uint32_t max_movable);

  /// Evacuate and retire every block flagged pending-retire (a program
  /// fault was observed on it). Returns false when the frontier ran dry
  /// mid-evacuation — the remaining blocks stay flagged and are retried on
  /// the next call.
  bool DrainRetirements(SimTime& now);

 private:
  /// Select (via the victim policy) and reclaim one block. Returns false
  /// when no victim qualifies or relocation ran out of frontier space.
  bool CollectOne(SimTime& now, std::uint32_t max_movable);

  /// Relocate every live page out of `victim`, then erase and recycle it —
  /// or retire it on an erase fault. Returns false if the allocation
  /// frontier ran dry mid-copy (block left un-erased).
  bool CollectVictim(std::uint32_t victim, SimTime& now);

  /// Relocate every live (valid/retained/archived) page out of `block_id`
  /// to fresh frontiers. Returns false if the frontier ran dry mid-copy.
  bool EvacuateBlock(std::uint32_t block_id, SimTime& now);

  PageFtl& ftl_;
};

}  // namespace insider::ftl
