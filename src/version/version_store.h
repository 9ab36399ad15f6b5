// Version store: the long-term home of old versions of protected pages.
// When the recovery ring releases a backup whose LBA is covered by a
// RangePolicyTable entry, the FTL archives it here instead of freeing it —
// the page stays on NAND (state kArchived) and a small DRAM record in the
// LBA's version chain names it. Every archived version is its own page, the
// same one-page-per-version shape as the recovery queue's entries; retention
// depth is policy-bound instead of ring-bound.
//
// Crash story: an archived page is an ordinary NAND page with ordinary OOB,
// so RebuildFromNand's scan sees archived versions like any other old
// version. With checkpointing enabled (DESIGN.md §13) the index itself is
// durable — Snapshot/Restore ride the checkpoint and every archive/prune is
// journaled, so chains and tombstone records survive a crash exactly. The
// checkpoint-disabled fallback instead clears this store and re-archives
// survivors through the normal ring-release path; since every data record
// has its own page, that reconstructs the pre-crash data records exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "nand/geometry.h"
#include "obs/metrics.h"
#include "version/range_policy.h"

namespace insider::version {

/// One retained version of one LBA. A data record names the NAND page that
/// holds its payload. Tombstone records mark "this LBA was trimmed at
/// written_at" and name no page; they let a selective rollback reproduce a
/// deletion, but — unlike data versions — their NAND page is freed
/// immediately, so they are best-effort across power loss.
struct VersionRecord {
  SimTime written_at = 0;             ///< logical write time (OOB)
  nand::Ppa ppa = nand::kInvalidPpa;  ///< payload page; invalid for tombstones
  bool tombstone = false;
};

class VersionStore {
 public:
  /// Invoked with the NAND page of every record the store drops
  /// (pruned/evicted) so the owner can reclaim it.
  using ReleaseFn = std::function<void(nand::Ppa)>;

  explicit VersionStore(std::shared_ptr<const RangePolicyTable> policies)
      : policies_(std::move(policies)) {}
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// True when at least one protected range exists; when false the FTL
  /// bypasses the store entirely (exact seed behavior).
  bool Enabled() const {
    return policies_ != nullptr && policies_->RangeCount() > 0;
  }
  const RangePolicyTable* Policies() const { return policies_.get(); }
  bool Protected(Lba lba) const {
    return policies_ != nullptr && policies_->Protected(lba);
  }

  /// Archives one released version of a protected LBA. `ppa` is the NAND
  /// page holding the payload (ignored for tombstones). Pruning of the LBA's
  /// chain runs inline; `release` fires for every *other* page this drops —
  /// never for `ppa` itself. Returns true when the store keeps `ppa` (the
  /// FTL marks it archived); false for a tombstone or a version pruned on
  /// arrival.
  bool Archive(Lba lba, nand::Ppa ppa, SimTime written_at, bool tombstone,
               SimTime now, const ReleaseFn& release);

  /// Ages every chain against its range policy. Cheap when nothing can have
  /// expired (tracks the next due time); called from the FTL's periodic
  /// release path.
  void PruneExpired(SimTime now, const ReleaseFn& release);
  /// Earliest time PruneExpired() could have work; max() when none pending.
  SimTime NextDue() const { return next_due_; }

  /// Space-pressure valve: drops the globally oldest records until at least
  /// `max_pages` pages were freed or the store is empty. Returns the number
  /// of pages actually freed (0 means the store has nothing left).
  std::size_t EvictOldest(std::size_t max_pages, const ReleaseFn& release);

  /// GC moved the archived page of `lba` from `from` to `to`. Returns false
  /// if no record of `lba` names `from`.
  bool Relocate(Lba lba, nand::Ppa from, nand::Ppa to);

  /// The archived page `ppa` of `lba` was lost to media errors: drops the
  /// one record naming it. Returns false if no record of `lba` names it.
  bool DropPpa(Lba lba, nand::Ppa ppa);

  /// Forgets everything (power-loss rebuild wipes volatile state first).
  /// Monotonic metric counters are preserved.
  void Clear();

  // -- Lookup ------------------------------------------------------------
  /// The version chain of `lba`, oldest first; nullptr when none retained.
  const std::vector<VersionRecord>* ChainOf(Lba lba) const;

  /// Records retained, tombstones included.
  std::size_t VersionCount() const { return record_count_; }
  /// NAND pages pinned: one per data record.
  std::size_t PageCount() const { return page_count_; }

  /// NAND bytes pinned by archived pages.
  std::uint64_t StoreBytes(std::uint64_t page_size) const {
    return static_cast<std::uint64_t>(page_count_) * page_size;
  }
  /// DRAM footprint of the index at packed (firmware-struct) widths: 17 B
  /// per chain record (written_at + ppa + flags) — the honest Table
  /// III-style cost.
  std::uint64_t DramBytes() const {
    return static_cast<std::uint64_t>(record_count_) * kPackedRecordBytes;
  }
  static constexpr std::uint64_t kPackedRecordBytes = 17;

  void ForEachChain(
      const std::function<void(Lba, const std::vector<VersionRecord>&)>& fn)
      const;

  /// Registers the standard metric set (version.*) and keeps it updated.
  void AttachMetrics(obs::MetricsRegistry* registry, std::uint64_t page_size);

  /// Point-in-time copy of the store's index for checkpointing. Holds only
  /// DRAM metadata (the chains); the payload pages themselves live on NAND
  /// and survive power loss on their own.
  struct Snapshot {
    std::map<Lba, std::vector<VersionRecord>> chains;
    std::size_t record_count = 0;
    std::size_t page_count = 0;
    std::vector<std::size_t> per_range_records;
    SimTime next_due = std::numeric_limits<SimTime>::max();

    /// Packed serialized size, for modeling checkpoint media cost.
    std::uint64_t PackedBytes() const {
      return static_cast<std::uint64_t>(record_count) * kPackedRecordBytes;
    }
  };
  Snapshot SnapshotState() const;
  /// Restores the index from a snapshot. Metric handles and monotonic
  /// counters are preserved, exactly like Clear().
  void RestoreState(const Snapshot& snapshot);

 private:
  using Chain = std::vector<VersionRecord>;  // by written_at, oldest first

  // Drops chain.front(). When its page is `guard_ppa`, sets *guarded instead
  // of firing `release` (the page never entered the archived state).
  // Returns pages freed (0 or 1).
  std::size_t DropFront(Lba lba, Chain& chain, const ReleaseFn& release,
                        nand::Ppa guard_ppa, bool* guarded);
  // Prunes one chain under `policy`; returns pages freed.
  std::size_t PruneChain(Lba lba, Chain& chain, const RangePolicy& policy,
                         SimTime now, const ReleaseFn& release,
                         nand::Ppa guard_ppa, bool* guarded);
  // Earliest future time at which `chain` could have an expirable front.
  SimTime NextExpiry(const Chain& chain, const RangePolicy& policy) const;
  // The data record of `chain` naming `ppa`; chain.end() when none does.
  static Chain::iterator FindPage(Chain& chain, nand::Ppa ppa);
  void NoteRecordAdded(Lba lba, const VersionRecord& rec);
  void NoteRecordDropped(Lba lba, const VersionRecord& rec);
  void RefreshGauges();

  std::shared_ptr<const RangePolicyTable> policies_;
  std::map<Lba, Chain> chains_;  // ordered: deterministic iteration
  std::size_t record_count_ = 0;
  std::size_t page_count_ = 0;
  std::vector<std::size_t> per_range_records_;  // indexed like Ranges()
  /// Earliest time PruneExpired() could have work; max() when none pending.
  SimTime next_due_ = std::numeric_limits<SimTime>::max();

  // Cached metric handles (null until AttachMetrics).
  obs::Counter* m_archived_ = nullptr;
  obs::Counter* m_pruned_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Gauge* m_versions_ = nullptr;
  obs::Gauge* m_store_bytes_ = nullptr;
  obs::Gauge* m_dram_bytes_ = nullptr;
  std::vector<obs::Gauge*> m_range_versions_;
  std::uint64_t page_size_ = 0;
};

}  // namespace insider::version
