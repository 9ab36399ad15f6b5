// L2P checkpointing: periodic durable snapshots of the FTL's DRAM state,
// double-buffered on reserved metadata blocks (DESIGN.md §13).
//
// On-media layout per checkpoint buffer (two buffers, A/B; epoch e commits
// to buffer e % 2, so an aborted commit only ever trashes the buffer holding
// the *older* checkpoint):
//
//   page 0            header  — stamp = mix(epoch, body_pages, snapshot hash)
//   pages 1..body     body    — packed mapping/ring/store state
//   page body + 1     footer  — programmed last; its presence IS the commit
//
// A commit aborts (leaving the previous checkpoint authoritative) when the
// power-cut probe fires ("checkpoint.flush"), when a metadata program fails
// (FaultKind::kMetaProgramFail), or when the packed snapshot does not fit
// the buffer. Because the footer is programmed last and a failed program
// burns its page, every torn commit is detectable from media alone: the
// rebuild validates header + footer stamps (two page reads per buffer,
// constant cost regardless of fill) and takes the newest buffer that passes.
//
// Simulation trick: the snapshot *contents* are held as a DRAM side-copy
// gated on that media validity — the body pages carry stamps, not packed
// bytes. Real firmware would demand-page the mapping body after mount; the
// side-copy models exactly that without a byte serializer, and keeps the
// modeled rebuild cost honest (validation reads only).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/lazy_table.h"
#include "common/time.h"
#include "ftl/ftl_types.h"
#include "ftl/page_id_table.h"
#include "ftl/recovery_queue.h"
#include "nand/flash_array.h"
#include "version/version_store.h"

namespace insider::ftl {

/// Point-in-time copy of everything RebuildFromNand would otherwise
/// reconstruct by scanning OOB: mapping tables, per-block occupancy, the
/// recovery ring, the trim journal, and the version-store index. Block
/// health and the free pools are deliberately absent — health persists by
/// fiat (modeled bad-block table), pools and write frontiers are recomputed
/// from media block headers after replay.
struct FtlSnapshot {
  std::uint64_t write_seq = 0;
  PageIdTable l2p;
  PageIdTable p2l;
  common::LazyTable<PageState> page_state;
  std::vector<BlockCounters> block_counters;
  RecoveryQueue queue;
  std::vector<std::pair<SimTime, Lba>> trim_journal;
  version::VersionStore::Snapshot store;
  SimTime last_release_horizon = 0;
  std::uint64_t valid_pages = 0;
  std::uint64_t retained_pages = 0;
  std::uint64_t archived_pages = 0;

  /// Modeled packed size of the body: 12 B per live mapping entry (the
  /// l2p side is enough — p2l and page state are derivable on load), the
  /// ring and trim journal at their packed widths, and the store index.
  std::uint64_t PackedBytes() const {
    std::uint64_t mapped = valid_pages + retained_pages + archived_pages;
    return mapped * 12 +
           static_cast<std::uint64_t>(queue.Size()) *
               RecoveryQueue::PackedEntryBytes() +
           static_cast<std::uint64_t>(trim_journal.size()) * 12 +
           store.PackedBytes() + block_counters.size() * 12 + 64;
  }

  /// Cheap content fingerprint for the media stamps.
  std::uint64_t Hash() const;
};

class CheckpointStore {
 public:
  /// `buffer_a` / `buffer_b` are global block ids of the two reserved
  /// checkpoint buffers. A default-constructed store is disabled.
  CheckpointStore() = default;
  CheckpointStore(nand::FlashArray* nand, std::vector<std::uint64_t> buffer_a,
                  std::vector<std::uint64_t> buffer_b);

  bool Enabled() const { return nand_ != nullptr; }

  /// Last committed epoch (0 = never).
  std::uint64_t Epoch() const { return epoch_; }

  /// Commit `snap` as epoch Epoch() + 1. Erases the target buffer, programs
  /// header + body + footer, and only on full success advances the epoch
  /// and stores the side-copy. Chains media completions into `*complete`.
  bool Commit(FtlSnapshot snap, SimTime now, SimTime* complete,
              FtlStats* stats);

  /// Media-validated newest checkpoint: header + footer stamp checks only
  /// (`pages_read` counts them). Returns a null snapshot when no buffer
  /// validates.
  struct Located {
    const FtlSnapshot* snapshot = nullptr;
    std::uint64_t epoch = 0;
    std::uint64_t pages_read = 0;
  };
  Located LocateLatestValid() const;

 private:
  struct Slot {
    bool valid = false;  ///< side-copy present (media still gates use)
    std::uint64_t epoch = 0;
    std::uint32_t body_pages = 0;
    std::uint64_t base_stamp = 0;
    FtlSnapshot snapshot;
  };

  nand::Ppa PpaOfPosition(std::uint32_t buffer, std::uint32_t position) const;
  std::uint32_t CapacityPages(std::uint32_t buffer) const;
  bool SlotMediaValid(const Slot& slot, std::uint32_t buffer) const;

  nand::FlashArray* nand_ = nullptr;
  std::vector<std::uint64_t> buffers_[2];
  std::uint64_t epoch_ = 0;
  Slot slots_[2];
};

}  // namespace insider::ftl
