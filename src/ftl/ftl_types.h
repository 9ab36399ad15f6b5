// Shared FTL value types: host-visible status/result structs, the device
// configuration, statistics counters, and the per-page / per-block state the
// mapping core, the GC engine and the pluggable policies all agree on.
//
// Kept free of any class logic so that policy implementations (policy.h) and
// the GC engine (gc_engine.h) can be compiled against this header without
// pulling in the full mapping core.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/io.h"
#include "common/time.h"
#include "nand/errors.h"
#include "nand/fault_plan.h"
#include "nand/geometry.h"
#include "nand/latency.h"
#include "nand/page_data.h"
#include "version/range_policy.h"

namespace insider::ftl {

enum class [[nodiscard]] FtlStatus {
  kOk,
  kReadOnly,     ///< device latched read-only after a ransomware alarm
  kUnmapped,     ///< read/trim of an LBA with no current mapping
  kOutOfRange,   ///< LBA beyond exported capacity
  kNoSpace,      ///< GC could not reclaim any block (device full)
  kReadError,    ///< uncorrectable ECC failure; the data is lost
};

struct FtlResult {
  FtlStatus status = FtlStatus::kOk;
  SimTime complete_time = 0;
  nand::PageData data;  ///< payload for reads

  bool ok() const { return status == FtlStatus::kOk; }
};

/// Outcome of one multi-page host command (PageFtl::ReadRange /
/// WriteRange): kOk, or the status of the page that ended the command, and
/// when the last page that completed before it finished in the NAND array
/// (the command's start time if none did). Carries no payload.
struct CommandResult {
  FtlStatus status = FtlStatus::kOk;
  SimTime complete_time = 0;

  bool ok() const { return status == FtlStatus::kOk; }
};

/// Which pluggable victim-selection policy the FTL instantiates (a custom
/// implementation can also be injected with PageFtl::SetVictimPolicy).
enum class VictimPolicyKind {
  kGreedy,       ///< fewest movable pages, ties to the least-worn block
  kCostBenefit,  ///< Rosenblum-style (1-u)/(2u) score with a wear bonus
};

/// Durable-metadata (checkpoint + write-ahead mapping journal) knobs. Off by
/// default: the seed device rebuilds by full OOB scan only, and every golden
/// counter in the tier-1 suite assumes no metadata traffic.
struct CheckpointConfig {
  /// Master switch. When false, no metadata blocks are reserved and
  /// RebuildFromNand always takes the full-scan path.
  bool enabled = false;
  /// Firmware-scheduler period between checkpoint flushes (Ssd wiring).
  SimTime interval = Seconds(5);
  /// Journal records packed per metadata page. 4 KiB page / ~40 B packed
  /// record, held conservatively below that to leave room for the CRC/seq
  /// page stamp.
  std::uint32_t journal_records_per_page = 96;
  /// Blocks per journal region (two regions, double-buffered). The journal
  /// tail that survives a crash is bounded by this region size; overflow
  /// before the next checkpoint forces a full-scan fallback.
  std::uint32_t journal_blocks_per_region = 2;
  /// Blocks per checkpoint buffer (two buffers, A/B). Must be large enough
  /// for the modeled snapshot size; TakeCheckpoint aborts (and keeps the
  /// previous checkpoint valid) when the snapshot doesn't fit.
  std::uint32_t checkpoint_blocks_per_buffer = 2;
};

struct FtlConfig {
  nand::Geometry geometry;
  nand::LatencyModel latency;
  /// Media error model (disabled by default) and its deterministic seed.
  nand::ErrorModel errors;
  std::uint64_t error_seed = 0x5eed;
  /// Scripted fault plan installed on the flash array at construction
  /// (deterministic "fail op N / at time T" injection for tests).
  nand::FaultPlan fault_plan;

  /// SSD-Insider delayed deletion on/off (off = conventional baseline).
  bool delayed_deletion = true;
  /// Persist trims as tombstone pages (delayed-deletion mode only). A trim
  /// programs one page whose OOB says "lba unmapped at written_at"; the
  /// page is born invalid (reclaimable immediately, never relocated) and
  /// exists purely so RebuildFromNand can replay in-window trims instead of
  /// resurrecting the trimmed version — closing the trim-persistence wart
  /// (DESIGN.md §8). Costs one page program per trim of a mapped LBA; the
  /// golden-counter parity tests opt out to keep their pinned monolith
  /// numbers meaningful.
  bool trim_tombstones = true;
  /// How long displaced versions stay recoverable (paper: 10 s).
  SimTime retention_window = Seconds(10);
  /// Recovery-queue capacity in entries (paper Table III: 2,621,440 ~ 30 MB;
  /// 0 = unbounded). When full, the oldest backups are force-released.
  std::size_t recovery_queue_capacity = 2'621'440;
  /// Blocks withheld from the host so GC always has somewhere to copy to.
  /// This is the *hard floor*: a host write blocks on inline GC only when
  /// the free pool is at or below it.
  std::uint32_t gc_reserve_blocks = 2;
  /// Background-GC low watermark: when the free pool falls to this level the
  /// FTL reports BackgroundGcNeeded() so the firmware scheduler can reclaim
  /// during host-idle gaps, long before writes would block at the floor.
  std::uint32_t gc_low_watermark_blocks = 6;
  /// Background GC stops once the free pool recovers to this level
  /// (hysteresis so the task doesn't thrash around the low watermark).
  std::uint32_t gc_high_watermark_blocks = 12;
  /// Victim-policy selection (the default reproduces the seed behavior).
  /// Allocation is always striped; PageFtl::SetAllocationPolicy swaps it.
  VictimPolicyKind victim_policy = VictimPolicyKind::kGreedy;
  /// Fraction of physical pages exported as logical capacity; the rest is
  /// over-provisioning for GC efficiency.
  double exported_fraction = 0.9;
  /// Modeled firmware cost of reverting one mapping entry during rollback.
  SimTime rollback_entry_cost = Microseconds(1);
  /// Per-LBA-range versioning policies (src/version). Released backups of
  /// protected LBAs are archived into the content-addressed version store
  /// instead of being freed, giving those ranges policy-bound retention
  /// depth. Null or an empty table = exact seed behavior: every release is
  /// final and the whole device keeps only the paper-default window.
  std::shared_ptr<const version::RangePolicyTable> range_policies;
  /// Durable-metadata recovery subsystem (DESIGN.md §13). Disabled by
  /// default; when enabled the FTL reserves metadata blocks, journals every
  /// mutation, and RebuildFromNand takes the O(Δ) fast path.
  CheckpointConfig checkpoint;
};

struct FtlStats {
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_page_copies = 0;      ///< valid + retained copies (Fig. 9)
  std::uint64_t gc_retained_copies = 0;  ///< subset forced by delayed deletion
  std::uint64_t gc_erases = 0;
  std::uint64_t retained_released = 0;   ///< backups aged out of the window
  std::uint64_t queue_evictions = 0;     ///< backups dropped by capacity
  std::uint64_t forced_releases = 0;     ///< backups sacrificed to free space
  std::uint64_t rollbacks = 0;
  std::uint64_t rollback_entries = 0;
  /// Pages GC found unreadable (uncorrectable ECC): valid data or backups
  /// lost to media errors.
  std::uint64_t gc_lost_pages = 0;
  /// Blocks reclaimed by watermark-driven background GC (scheduler tasks).
  std::uint64_t gc_background_blocks = 0;
  /// Virtual time host writes spent blocked inside inline (foreground) GC —
  /// the write-stall metric the background-GC path exists to shrink.
  SimTime gc_stall_time = 0;
  /// Program operations the NAND reported failed (page burned).
  std::uint64_t program_fails = 0;
  /// Erase operations the NAND reported failed (block retired).
  std::uint64_t erase_fails = 0;
  /// Host/GC writes transparently re-driven to a fresh page after a
  /// program failure.
  std::uint64_t write_redrives = 0;
  /// Blocks permanently removed from service (grown bad blocks).
  std::uint64_t blocks_retired = 0;
  /// Mapping-table reconstructions from an OOB flash scan (power loss).
  std::uint64_t rebuilds = 0;
  /// Tombstone pages programmed to persist trims (FtlConfig::trim_tombstones).
  std::uint64_t trim_tombstones = 0;
  /// Released backups of protected LBAs handed to the version store (all
  /// outcomes: stored or pruned on arrival).
  std::uint64_t archived_versions = 0;
  /// Archived pages released because their versions aged out of the
  /// range policy.
  std::uint64_t archived_pruned = 0;
  /// Archived pages sacrificed to free space (store eviction after
  /// the recovery queue ran dry).
  std::uint64_t archived_evictions = 0;
  /// Archived versions lost to uncorrectable ECC during GC relocation.
  std::uint64_t archived_lost = 0;
  /// Selective per-range rollbacks performed (PageFtl::RollBackRange).
  std::uint64_t range_rollbacks = 0;
  /// LBAs whose content a selective rollback changed (restored or unmapped).
  std::uint64_t range_rollback_restored = 0;
  /// Checkpoints committed (header + snapshot + footer all durable).
  std::uint64_t checkpoints_taken = 0;
  /// Metadata pages programmed for checkpoint bodies (modeled media cost).
  std::uint64_t checkpoint_pages_written = 0;
  /// Checkpoint flushes abandoned mid-commit (power-cut probe or metadata
  /// program fail); the previous checkpoint stays authoritative.
  std::uint64_t checkpoint_aborts = 0;
  /// Journal records appended by mutating FTL ops.
  std::uint64_t journal_records_appended = 0;
  /// Metadata pages programmed with batched journal records.
  std::uint64_t journal_pages_flushed = 0;
  /// Journal region filled before the next checkpoint; the next rebuild
  /// must fall back to a full OOB scan.
  std::uint64_t journal_overflows = 0;
  /// Rebuilds that used checkpoint + journal replay + delta scan.
  std::uint64_t rebuild_fast_path = 0;
  /// Rebuilds that fell back to the full OOB scan (checkpointing disabled,
  /// no valid checkpoint, torn journal, or overflow marker).
  std::uint64_t rebuild_fallbacks = 0;

  friend bool operator==(const FtlStats&, const FtlStats&) = default;
};

struct RollbackReport {
  std::size_t entries_reverted = 0;
  std::size_t mappings_restored = 0;  ///< distinct LBAs whose mapping changed
  SimTime duration = 0;               ///< modeled firmware time (paper: <1 s)
};

/// Outcome of a selective per-range rollback (PageFtl::RollBackRange): every
/// LBA in [begin, end) was examined and classified exactly once.
struct RangeRollbackReport {
  Lba begin = 0;
  Lba end = 0;                   ///< clamped to the exported capacity
  std::size_t lbas_examined = 0;
  std::size_t restored = 0;      ///< an older version's payload re-programmed
  std::size_t unmapped = 0;      ///< the restore point shows a trim
  std::size_t unchanged = 0;     ///< current content already at/before point
  std::size_t unversioned = 0;   ///< no retained version at or before point
  std::size_t failed = 0;        ///< no free page could be placed
  SimTime duration = 0;          ///< modeled firmware time
};

/// Why a retention configuration was rejected (typed validation instead of
/// silently constructing a no-op policy).
enum class RetentionConfigIssue : std::uint8_t {
  kNone,
  kNegativeWindow,      ///< retention_window < 0
  kNoOpRetention,       ///< delayed deletion on but the window retains nothing
  kInvalidRangePolicy,  ///< range_policies present but unusable
};

const char* ToString(RetentionConfigIssue issue);

struct RetentionConfigError {
  RetentionConfigIssue issue = RetentionConfigIssue::kNone;
  std::string detail;  ///< human-readable specifics for logs/tests

  bool ok() const { return issue == RetentionConfigIssue::kNone; }
};

/// Per-physical-page state from the FTL's point of view.
enum class PageState : std::uint8_t {
  kFree,      ///< erased, programmable
  kValid,     ///< current version of some LBA
  kInvalid,   ///< superseded and reclaimable
  kRetained,  ///< superseded but guarded by the recovery queue
  kBad,       ///< consumed by a failed program; unreadable until retirement
  /// Superseded, aged out of the ring, but pinned by a record of the
  /// version store (protected-range retention). Relocated by
  /// GC like retained pages; released only by policy pruning or eviction.
  kArchived,
};

/// A page some owner still needs: the L2P entry (kValid), the recovery
/// queue (kRetained) or the version store (kArchived). GC relocates exactly
/// these pages, and only these can be moved or dropped.
constexpr bool HoldsVersion(PageState state) {
  return state == PageState::kValid || state == PageState::kRetained ||
         state == PageState::kArchived;
}

/// Lifecycle of an erase block with respect to grown-bad-block management.
enum class BlockHealth : std::uint8_t {
  kHealthy,       ///< in normal service
  kPendingRetire, ///< program/erase fault observed; awaiting evacuation
  kRetired,       ///< permanently out of service (grown bad block)
};

/// Per-erase-block occupancy counters the mapping core maintains and the
/// victim policies select against.
struct BlockCounters {
  std::uint32_t valid = 0;
  std::uint32_t retained = 0;
  std::uint32_t archived = 0;
  std::uint32_t Movable() const { return valid + retained + archived; }
};

}  // namespace insider::ftl
