// Page-level FTL mapping core — the paper's baseline — plus SSD-Insider's
// delayed-deletion extension.
//
// Conventional mode (`delayed_deletion = false`): an overwrite immediately
// invalidates the old physical page; GC may reclaim it right away. This is
// the "Conventional SSD" baseline of Fig. 9, modeled after the page-mapping
// FTL with greedy victim selection the paper says it used.
//
// SSD-Insider mode (`delayed_deletion = true`): the old page instead becomes
// *retained* and a backup entry enters the recovery queue. Retained pages
// must be copied (not reclaimed) by GC until their entry ages past the
// retention window. RollBack() replays the young part of the queue to restore
// the mapping table to its state `retention_window` ago — the paper's
// "perfect recovery" that needs no data copies.
//
// Since the policy split, this class owns only the translation *state*
// (L2P/P2L tables, page states, per-block counters, free pools, the recovery
// queue) and the host-facing I/O mechanics. Decisions are delegated:
//
//   AllocationPolicy  which chip's write frontier takes the next page
//   VictimPolicy      which full block GC reclaims next
//   GcEngine          the reclamation mechanics (foreground / background /
//                     idle), driving the policies above
//
// Defaults (striped / greedy) reproduce the pre-split monolith stat-for-stat
// — the gc_policy parity test pins this.
//
// Every change to a page's owner (the L2P entry, the recovery queue or the
// version store) goes through four private transitions — MovePage,
// DropPage, MapVersion and ClearRetiredBlock — shared by the live path, GC,
// journal replay and both rebuild scans, so a crash path cannot drift from
// the live one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/lazy_table.h"
#include "common/time.h"
#include "ftl/checkpoint.h"
#include "ftl/ftl_types.h"
#include "ftl/gc_engine.h"
#include "ftl/mapping_journal.h"
#include "ftl/page_id_table.h"
#include "ftl/policy.h"
#include "ftl/recovery_queue.h"
#include "nand/flash_array.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "version/version_store.h"

namespace insider::ftl {

class PageFtl {
 public:
  explicit PageFtl(const FtlConfig& config);

  // Host interface -----------------------------------------------------

  /// Number of LBAs exported to the host.
  Lba ExportedLbas() const { return exported_lbas_; }

  /// [lba, lba + count) lies inside the exported range (overflow-safe).
  bool InExportedRange(Lba lba, std::uint64_t count) const {
    return count <= exported_lbas_ && lba <= exported_lbas_ - count;
  }

  /// One host command, page by page, every page issued at `now`: page i of
  /// a write programs stamp `stamp_base + i`; a read returns no payload.
  /// Each page runs the same per-page step WritePage / ReadPage run, with
  /// its own audit and journal scopes. An unmapped read page is skipped;
  /// any other failing page ends the command with its status. The caller
  /// range-checks the command first (InExportedRange).
  CommandResult WriteRange(Lba lba, std::uint32_t count,
                           std::uint64_t stamp_base, SimTime now);
  CommandResult ReadRange(Lba lba, std::uint32_t count, SimTime now);

  /// Program a copy of `data` (stamp, bytes and OOB tombstone flag; the FTL
  /// sets the OOB lba, write time and sequence) as `lba`'s new version.
  FtlResult WritePage(Lba lba, const nand::PageView& data, SimTime now);
  FtlResult ReadPage(Lba lba, SimTime now);
  /// Discard a mapping (filesystem delete). Under delayed deletion the old
  /// version stays recoverable just like an overwrite.
  FtlResult TrimPage(Lba lba, SimTime now);

  // Recovery interface --------------------------------------------------

  /// Latch the device read-only (step 1 of the paper's recovery: "ignore all
  /// writes sent to it").
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool IsReadOnly() const { return read_only_; }

  /// Roll the mapping table back to its state at `detect_time -
  /// retention_window`. The device must already be read-only. Backups older
  /// than the horizon are kept (their versions are deemed safe).
  RollbackReport RollBack(SimTime detect_time);

  /// Selective rollback: restore every LBA of [begin, end) to the newest
  /// retained version written at or before `restore_point`, drawing
  /// candidates from the current mapping, the recovery ring, and the
  /// version store's archived chains. Each restore is an ordinary new write
  /// (the displaced current version retires into the ring, so a selective
  /// rollback is itself undoable), which also keeps the OOB log consistent
  /// for power-loss rebuilds. Works with the device latched read-only.
  RangeRollbackReport RollBackRange(Lba begin, Lba end, SimTime restore_point,
                                    SimTime now);

  // Power-loss recovery ---------------------------------------------------

  struct [[nodiscard]] RebuildReport {
    std::size_t pages_scanned = 0;      ///< programmed pages visited
    std::size_t mappings_restored = 0;  ///< LBAs with a current version
    std::size_t backups_restored = 0;   ///< recovery-queue entries rebuilt
    std::size_t blocks_retired = 0;     ///< grown bad blocks carried over
    SimTime duration = 0;               ///< modeled scan time
    /// O(Δ) fast path taken: a valid checkpoint was restored and the journal
    /// tail replayed; only post-horizon pages were OOB-scanned.
    bool used_checkpoint = false;
    /// Checkpointing is enabled but the rebuild had to fall back to the full
    /// OOB scan (torn/missing checkpoint or journal-region overflow).
    bool fallback_full_scan = false;
    /// The reboot restarted the detector cold: its sliding-window state did
    /// not survive, opening a detection blind window (set by Ssd::PowerCycle).
    bool detector_state_lost = false;
    std::size_t checkpoint_pages_read = 0;   ///< validation reads (constant)
    std::size_t journal_pages_read = 0;      ///< replayed tail pages
    std::size_t journal_records_replayed = 0;
    std::size_t delta_pages_scanned = 0;     ///< OOB reads past the horizon
  };

  /// Sudden power loss followed by reboot: every volatile structure (L2P/P2L
  /// tables, page states, free pools, the recovery queue) is discarded and
  /// reconstructed by scanning per-page OOB metadata, the way real firmware
  /// rebuilds its mapping from the flash log. The grown-bad-block table and
  /// the degraded latch persist (firmware keeps them in a reserved region).
  /// A ransomware-alarm read-only latch does NOT survive — the detector
  /// re-arms after reboot — but rollback still works because the queue is
  /// rebuilt from the same OOB scan.
  RebuildReport RebuildFromNand(SimTime now);

  // Checkpointing --------------------------------------------------------

  /// True when CheckpointConfig::enabled reserved metadata blocks at
  /// construction (default off: the device behaves exactly as before).
  bool CheckpointEnabled() const { return checkpoints_.Enabled(); }

  /// Flush a full DRAM snapshot to the inactive checkpoint buffer and, on
  /// success, start a fresh journal epoch (the committed checkpoint
  /// supersedes every journal record). The firmware scheduler calls this on
  /// its checkpoint interval; the FTL also triggers it pre-emptively when
  /// the journal region fills past 70%. Returns the media completion time
  /// (== `now` when checkpointing is disabled or the commit aborted early).
  SimTime TakeCheckpoint(SimTime now);

  /// Reserved metadata blocks (checkpoint buffers + journal regions); these
  /// never hold host data and are excluded from GC and the free pools.
  /// Force every pending journal record durable at `now` (the batched path
  /// flushes only full pages). False when the flush tore — power-cut probe,
  /// metadata fault, or region overflow. Crash harnesses use this to park
  /// the device mid-journal-flush at the instant of death.
  bool FlushJournal(SimTime now);

  std::size_t MetadataBlockCount() const { return metadata_blocks_.size(); }
  const MappingJournal& Journal() const { return journal_; }
  const CheckpointStore& Checkpoints() const { return checkpoints_; }

  // Policy plumbing ------------------------------------------------------

  /// Swap a policy at runtime (experiments sweep these). The default
  /// instances are built from the FtlConfig.
  void SetAllocationPolicy(std::unique_ptr<AllocationPolicy> policy);
  void SetVictimPolicy(std::unique_ptr<VictimPolicy> policy);
  const AllocationPolicy& Allocation() const { return *allocation_; }
  const VictimPolicy& Victim() const { return *victim_; }

  // Background / idle reclamation ---------------------------------------

  /// True when the free pool is at or below the low watermark: the firmware
  /// scheduler should run BackgroundCollect during host-idle gaps so writes
  /// never block at the hard floor.
  bool BackgroundGcNeeded() const {
    return !read_only_ &&
           free_block_count_ <= config_.gc_low_watermark_blocks;
  }

  /// One bounded background-GC step (scheduler task body): reclaim up to
  /// `max_blocks` blocks, stopping at the high watermark. Returns blocks
  /// reclaimed.
  std::size_t BackgroundCollect(SimTime now, std::size_t max_blocks);

  /// Background garbage collection during host-idle time: reclaim up to
  /// `max_blocks` blocks that are free to collect *cheaply* (at most
  /// `max_movable` live pages each), so foreground writes find a warm free
  /// pool. Retained pages are honored exactly as in foreground GC. Returns
  /// the number of blocks reclaimed.
  std::size_t IdleCollect(SimTime now, std::size_t max_blocks,
                          std::uint32_t max_movable = 8);

  /// Release recovery-queue entries older than the retention window. The
  /// I/O paths call this implicitly; exposed so the firmware scheduler can
  /// age backups out during idle time too. Returns inline when nothing is
  /// due: no ring entry or trim at or before the horizon, and no store
  /// chain due for pruning.
  void ReleaseExpired(SimTime now) {
    if (!config_.delayed_deletion) return;
    const SimTime horizon = now - retention_window_;
    if (!queue_.DueBy(horizon) &&
        (trim_journal_.empty() || trim_journal_.front().time > horizon) &&
        store_.NextDue() > now) {
      last_release_horizon_ = std::max(last_release_horizon_, horizon);
      return;
    }
    ReleaseDue(now);
  }

  // Introspection -------------------------------------------------------

  const FtlConfig& Config() const { return config_; }
  const FtlStats& Stats() const { return stats_; }
  void ResetStats() { stats_ = FtlStats{}; }
  nand::FlashArray& Nand() { return nand_; }
  const nand::FlashArray& Nand() const { return nand_; }

  /// Attach the observability sinks (either may be null) and forward them to
  /// the NAND array. The tracer gets `ftl.map_lookup` instants on host
  /// reads, `ftl.redrive` instants when a program fault forces a re-drive,
  /// `ftl.retire_block` instants when a grown-bad block leaves service, and
  /// an `ftl.gc_stall` span covering each foreground GC invocation a host
  /// write blocked on; the registry mirrors the stalls as ftl.gc_stall_us.
  void AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  std::optional<nand::Ppa> Lookup(Lba lba) const;
  PageState StateOf(nand::Ppa ppa) const { return page_state_.Get(ppa); }
  /// True when this page carries a trim tombstone (OOB flag peek). An LBA
  /// mapped to a tombstone is host-visibly unmapped; the mapping exists only
  /// so the trim survives power loss (FtlConfig::trim_tombstones).
  bool IsTombstone(nand::Ppa ppa) const;
  /// Trims whose tombstone mapping is still inside the retention window.
  std::size_t TrimJournalSize() const { return trim_journal_.size(); }
  std::size_t FreeBlockCount() const { return free_block_count_; }
  std::size_t RecoveryQueueSize() const { return queue_.Size(); }
  std::uint64_t ValidPageCount() const { return valid_pages_; }
  std::uint64_t RetainedPageCount() const { return retained_pages_; }
  std::uint64_t ArchivedPageCount() const { return archived_pages_; }
  /// The version store behind the range policies (empty
  /// and inert when FtlConfig::range_policies is null/empty).
  const version::VersionStore& Store() const { return store_; }
  /// Outcome of validating FtlConfig's retention settings at construction.
  /// On rejection the FTL logged the issue and fell back to the paper's
  /// 10 s window rather than running with no-op retention.
  const RetentionConfigError& RetentionConfigStatus() const {
    return retention_error_;
  }
  /// Outcome of nand::ValidateGeometry at construction. On rejection the
  /// FTL logged the issue, built no table or block array for the shape,
  /// and exports no LBAs, so every host command is out of range.
  const nand::GeometryError& GeometryStatus() const { return geometry_error_; }
  /// Most live recovery-queue entries at any one time since construction
  /// (the ftl.recovery_queue.high_water gauge).
  std::size_t RecoveryQueueHighWater() const { return queue_high_water_; }

  // Fault / bad-block introspection --------------------------------------

  BlockHealth HealthOf(std::uint32_t block_id) const {
    return block_health_[block_id];
  }
  std::uint32_t RetiredBlockCount() const { return retired_blocks_; }
  /// Latched when fault-driven block retirement exhausted the spare pool and
  /// a write could not be placed: the device degrades to read-only (reads
  /// keep completing) instead of asserting or corrupting state.
  bool IsDegraded() const { return degraded_; }

  /// Wear summary across erase blocks. GC breaks victim-selection ties
  /// toward the least-worn block, so the spread stays bounded.
  struct WearStats {
    std::uint64_t min_erases = 0;
    std::uint64_t max_erases = 0;
    double mean_erases = 0.0;
  };
  WearStats Wear() const;

  /// Resident heap estimate of the capacity-proportional FTL state: lazily
  /// chunked mapping tables, the recovery queue, the NAND array and dense
  /// per-block bookkeeping. The paper-scale footprint regression pins this
  /// for an empty 512 GB device (it must stay in the tens of megabytes).
  std::uint64_t ResidentBytesEstimate() const {
    std::uint64_t bytes = l2p_.ResidentBytes() + p2l_.ResidentBytes() +
                          page_state_.ResidentBytes() +
                          victims_.ResidentBytes() +
                          block_counters_.capacity() * sizeof(BlockCounters) +
                          block_health_.capacity() * sizeof(BlockHealth) +
                          active_block_per_chip_.capacity() *
                              sizeof(std::uint32_t);
    for (const auto& pool : free_blocks_by_chip_) {
      bytes += pool.capacity() * sizeof(std::uint32_t);
    }
    return bytes + queue_.ResidentBytes() + nand_.ResidentBytesEstimate();
  }

  /// True when this build compiled the INSIDER_AUDIT mutation hooks in
  /// (tests use this to decide whether the abort-on-violation path exists).
  static bool AuditHooksEnabled();

  /// Exhaustive cross-check of every FTL invariant (L2P/P2L agreement, block
  /// counters, queue guards, NAND OOB tags). Delegates to InvariantAuditor;
  /// returns a description of the first violation or empty string if
  /// consistent. Used by property tests.
  std::string CheckInvariants() const;

 private:
  friend class GcEngine;  // the engine mutates mapping state via the helpers
                          // below; it lives in gc_engine.cc to keep the
                          // mechanics out of the mapping core
  friend class InvariantAuditor;  // read-only cross-layer state audit
  friend class FtlStateTamperer;  // test-only corruption injector proving
                                  // the auditor detects each violation class

  /// RAII hook the public mutating entry points open. Under INSIDER_AUDIT
  /// its destructor runs a full InvariantAuditor pass once the outermost
  /// scope closes (the depth counter keeps internally nested entry points —
  /// e.g. ReleaseExpired inside WritePage — from auditing twice) and aborts
  /// with the structured diff on any violation. Without the option the
  /// destructor is a no-op.
  class MutationAudit {
   public:
    MutationAudit(const PageFtl& ftl, const char* op)
        : ftl_(ftl), op_(op) {
      ++ftl_.audit_depth_;
    }
#ifdef INSIDER_AUDIT
    ~MutationAudit();
#else
    ~MutationAudit() { --ftl_.audit_depth_; }
#endif
    MutationAudit(const MutationAudit&) = delete;
    MutationAudit& operator=(const MutationAudit&) = delete;

   private:
    const PageFtl& ftl_;
    const char* op_;
  };

  /// RAII journal hook every mutating entry point opens right next to its
  /// MutationAudit (the insider_lint `journal-hook` rule pins the pairing).
  /// On scope exit it flushes any full record batches accumulated by the op,
  /// so journal durability lags a bounded number of records behind DRAM.
  class JournalBatchScope {
   public:
    JournalBatchScope(PageFtl& ftl, SimTime now) : ftl_(ftl), now_(now) {}
    ~JournalBatchScope() {
      if (ftl_.journal_.Enabled() && !ftl_.replaying_) {
        ftl_.JournalFlushBatches(now_);
      }
    }
    JournalBatchScope(const JournalBatchScope&) = delete;
    JournalBatchScope& operator=(const JournalBatchScope&) = delete;

   private:
    PageFtl& ftl_;
    SimTime now_;
  };

  /// A per-page read: status and completion time, and on kOk the NAND
  /// array's view of the page.
  struct PageRead {
    CommandResult result;
    std::optional<nand::PageView> data;
  };

  /// The per-page steps behind WritePage/WriteRange and ReadPage/ReadRange:
  /// one page at `now` under its own MutationAudit + JournalBatchScope, the
  /// caller having range-checked `lba`.
  CommandResult WriteStep(Lba lba, const nand::PageView& data, SimTime now);
  PageRead ReadStep(Lba lba, SimTime now);

  /// Re-derive `chip`'s ready bit (ready_chips_) from
  /// PolicyView::ChipCanAllocate; called wherever its frontier or free pool
  /// changes.
  void RefreshChipReady(std::uint32_t chip);
  void RefreshAllChipsReady();

  /// Bring `block_id`'s victim-index entry in line with its state: a member
  /// exactly when it is full, not a write frontier, healthy and not
  /// reserved, keyed by its movable count. Every mutation of those inputs
  /// on the live path calls this; rebuilds re-derive the whole index.
  void RefreshVictim(std::uint32_t block_id);
  void RebuildVictimIndex();

  // Checkpoint / journal internals ---------------------------------------

  /// Append a redo record (no-op when the journal is disabled or a rebuild
  /// is replaying — replay must never re-journal its own effects).
  void JournalAppend(const JournalRecord& rec);
  /// Flush full batches (records_per_page granularity); JournalBatchScope's
  /// destructor calls it when the journal is on and not replaying.
  void JournalFlushBatches(SimTime now);
  /// Flush everything pending; false when the journal could not be made
  /// durable (the GC erase-intent protocol refuses to erase on false).
  bool JournalFlushAll(SimTime& now);
  /// Pre-emptive checkpoint when the active journal region runs past 70%.
  void MaybeCheckpoint(SimTime now);
  FtlSnapshot BuildSnapshot() const;
  void RestoreFromSnapshot(const FtlSnapshot& snap);
  /// Apply one replayed record to DRAM state. False = the record contradicts
  /// media (rebuild falls back to the full scan).
  bool ReplayJournalRecord(const JournalRecord& rec);
  /// OOB-scan only pages programmed past the replayed horizon (per block:
  /// positions >= the count of non-free page states). False = media
  /// contradicts the replayed state.
  bool DeltaScan(RebuildReport& report);
  /// Discard every volatile structure ahead of a rebuild.
  void WipeVolatileState();
  /// Recompute the free pools, active frontiers, and free_block_count_ from
  /// media block headers (both rebuild paths end here).
  std::size_t RecomputePoolsAndFrontiers();
  /// Rebuild pending_retire_ from the persisted health table.
  void RecomputePendingRetire();
  /// The pre-checkpoint rebuild: full OOB scan of every non-metadata block.
  void FullScanRebuild(RebuildReport& report, SimTime now);
  /// Mapping-table core of RollBack, shared with kRollback replay (no stats,
  /// no read-only latch, no obs).
  std::size_t RollBackCore(SimTime detect_time,
                           std::vector<Lba>* touched_out);

  /// Get a programmable PPA at a write frontier: ask the allocation policy
  /// for a chip, open a fresh block there if the active one is full. Returns
  /// kInvalidPpa if every chip is out of free blocks and full.
  nand::Ppa AllocatePage();

  // Page-state transitions. Each changes mapping state and nothing else:
  // callers keep their own checks, journal records, stats, trace events and
  // RefreshVictim calls.

  /// Move a valid, retained or archived page from `src` to the free page
  /// `dst`; its owner (L2P entry, recovery queue or version store) follows.
  /// False, with nothing changed, when `src` holds no version or its owner
  /// does not know it.
  bool MovePage(nand::Ppa src, nand::Ppa dst);
  /// A valid, retained or archived page is lost; its owner forgets it.
  /// Returns the version records the store dropped with it.
  std::size_t DropPage(nand::Ppa src);
  /// Retire `lba`'s current version, if it has one, at `displaced_at`, then
  /// make the programmed page `ppa` current.
  void MapVersion(Lba lba, nand::Ppa ppa, SimTime displaced_at);
  /// A retired block's mapping state: programmed pages bad, the rest free,
  /// reverse map and counters cleared (its live pages left beforehand).
  void ClearRetiredBlock(std::uint32_t block_id);

  /// ReleaseExpired's out-of-line body: pops the due ring entries, prunes
  /// the store and ages trims under the audit and journal scopes.
  void ReleaseDue(SimTime now);
  void MarkInvalid(nand::Ppa ppa);
  void Retire(Lba lba, nand::Ppa old_ppa, SimTime now);
  /// Queue a backup of the retained page `old_ppa` displaced at
  /// `displaced_at`: its P2L slot takes the entry's id, and a backup the
  /// capacity evicts is released at `now`.
  void PushBackup(Lba lba, nand::Ppa old_ppa, SimTime displaced_at,
                  SimTime now);
  /// The id of the recovery-queue entry a retained page's P2L slot holds.
  RecoveryQueue::EntryId QueueIdOf(nand::Ppa ppa) const {
    return static_cast<RecoveryQueue::EntryId>(p2l_.Get(ppa));
  }
  /// Release one ring backup: archive it into the version store when its
  /// LBA is protected (page becomes kArchived, zero-copy), free it
  /// otherwise. `now` drives the store's inline pruning.
  void ReleaseBackup(const BackupEntry& entry, SimTime now);
  /// Archive path of ReleaseBackup. True = the page became an archived
  /// version and must stay on NAND.
  bool ArchiveBackup(const BackupEntry& entry, SimTime now);
  /// The version store dropped an archived page: kArchived → kInvalid.
  void ReleaseArchived(nand::Ppa ppa);
  /// Raw OOB/payload peek that bypasses the timed/ECC read path (the same
  /// trick IsTombstone uses), so bookkeeping never perturbs the
  /// deterministic media-error sequence. Empty for erased/bad pages.
  std::optional<nand::PageView> RawPage(nand::Ppa ppa) const;
  bool IsProtected(Lba lba) const { return store_.Protected(lba); }
  /// Return an erased block to its chip's free pool.
  void RecycleBlock(std::uint32_t block_id);

  /// Program `page` at a fresh frontier page, transparently re-driving past
  /// program failures: a failed attempt burns its page, flags the block for
  /// retirement, and retries on a new frontier. Preserves page.oob.lba and
  /// .written_at; assigns a fresh global sequence number per attempt.
  /// `page.bytes` must stay readable across the call (GC passes a view of
  /// the source page, which nothing here erases). Advances `now` by all
  /// NAND time spent. Returns kInvalidPpa when the frontier ran dry before
  /// an attempt succeeded.
  nand::Ppa ProgramWithRedrive(nand::PageView page, SimTime& now);

  /// A program fault was observed on this block: close it as a write
  /// frontier and queue it for evacuation + retirement.
  void MarkPendingRetire(std::uint32_t block_id);

  /// Take an (already evacuated) block permanently out of service.
  void RetireBlock(std::uint32_t block_id);

  /// Fault-driven retirement left no room for a write: latch read-only.
  void EnterDegraded();

  /// Why ValidateGeometry rejected config.geometry, if it did (then
  /// config_ carries an empty geometry instead).
  nand::GeometryError geometry_error_;
  FtlConfig config_;
  nand::FlashArray nand_;
  Lba exported_lbas_;

  // The three capacity-proportional tables are lazily chunked so a
  // paper-scale (512 GB) device costs resident memory proportional to the
  // LBA/PPA space actually touched, not to TotalPages (512 MiB each dense
  // at 4 B per id). A page's P2L slot holds its LBA, except a retained
  // page's, which holds the id of the recovery-queue entry guarding it
  // (the entry holds the LBA).
  PageIdTable l2p_;
  PageIdTable p2l_;
  common::LazyTable<PageState> page_state_;
  /// Greedy victim index over the reclaimable data blocks.
  VictimIndex victims_;
  std::vector<BlockCounters> block_counters_;
  /// Per-chip LIFO pools of erased block ids plus one active block per chip.
  std::vector<std::vector<std::uint32_t>> free_blocks_by_chip_;
  std::vector<std::uint32_t> active_block_per_chip_;
  /// One bit per chip: its active block has room or its free pool is
  /// non-empty (PolicyView::ChipCanAllocate, cached so allocation finds the
  /// next ready chip without probing every full one).
  std::vector<std::uint64_t> ready_chips_;
  std::size_t free_block_count_ = 0;
  static constexpr std::uint32_t kNoActiveBlock = PolicyView::kNoActiveBlockId;

  RecoveryQueue queue_;
  std::size_t queue_high_water_ = 0;
  /// Time-ordered record of trims whose tombstone is still the current
  /// mapping; ReleaseExpired unmaps and invalidates the tombstone once the
  /// retention window has passed (bounded by trims-per-window).
  struct TrimRecord {
    SimTime time = 0;
    Lba lba = kInvalidLba;
  };
  std::deque<TrimRecord> trim_journal_;
  bool read_only_ = false;
  /// Largest expiry horizon ever passed to the recovery queue's release
  /// pass: every live entry must be younger than this (the auditor's
  /// in-window check Q3).
  SimTime last_release_horizon_ = std::numeric_limits<SimTime>::min();
  /// MutationAudit nesting depth and mutation counter (see INSIDER_AUDIT).
  mutable std::uint32_t audit_depth_ = 0;
  mutable std::uint64_t audit_tick_ = 0;

  /// Grown-bad-block state (persists across power loss, like a real bad
  /// block table) and the blocks queued for evacuation + retirement.
  std::vector<BlockHealth> block_health_;
  std::vector<std::uint32_t> pending_retire_;
  std::uint32_t retired_blocks_ = 0;
  std::uint32_t out_of_service_blocks_ = 0;  ///< pending-retire + retired
  bool degraded_ = false;
  /// Global program sequence number stamped into each page's OOB; the last
  /// value assigned (restored from the scan maximum on rebuild).
  std::uint64_t write_seq_ = 0;

  std::uint64_t valid_pages_ = 0;
  std::uint64_t retained_pages_ = 0;
  std::uint64_t archived_pages_ = 0;
  FtlStats stats_;

  std::unique_ptr<AllocationPolicy> allocation_;
  std::unique_ptr<VictimPolicy> victim_;
  /// Why ValidateRetentionConfig rejected the config, if it did.
  RetentionConfigError retention_error_;
  /// The validated retention window: FtlConfig::retention_window, or the
  /// paper's 10 s when the config was rejected. Release and rollback both
  /// read this, never the raw config.
  SimTime retention_window_;
  /// Long-term home of protected ranges' old versions (ftl_types.h
  /// range_policies); inert when no ranges are configured.
  version::VersionStore store_;
  PolicyView view_;
  GcEngine gc_;

  /// Reserved metadata block ids (checkpoint buffers then journal regions);
  /// empty when CheckpointConfig::enabled is false.
  std::vector<std::uint64_t> metadata_blocks_;
  CheckpointStore checkpoints_;
  MappingJournal journal_;
  /// True while RebuildFromNand replays the journal tail: replayed ops must
  /// not re-append records or re-trigger checkpoints.
  bool replaying_ = false;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LogHistogram* gc_stall_hist_ = nullptr;
  obs::LogHistogram* restore_age_hist_ = nullptr;
  obs::Gauge* queue_high_water_gauge_ = nullptr;
};

}  // namespace insider::ftl
