// Content-addressed version store: the long-term home of old versions of
// protected pages. When the recovery ring releases a backup whose LBA is
// covered by a RangePolicyTable entry, the FTL archives it here instead of
// freeing it — the page stays on NAND (state kArchived) as the refcounted
// payload object for its content hash, and a small DRAM record (per-LBA
// version chain) remembers which versions exist. Identical old pages are
// stored once; retention depth is policy-bound instead of ring-bound.
//
// Crash story: the payload substrate is ordinary NAND pages with ordinary
// OOB, so RebuildFromNand's scan sees archived versions like any other old
// version. With checkpointing enabled (DESIGN.md §13) the index itself is
// durable — Snapshot/Restore ride the checkpoint and every archive/prune
// is journaled, so dedupe chains and tombstone records survive a crash
// exactly. The checkpoint-disabled fallback instead clears this store and
// re-archives survivors through the normal ring-release path, which
// converges to the pre-crash chain set only when no cross-page dedupe
// occurred (a deduped page's duplicates are not reconstructible from OOB
// once their own pages are erased — the full-rescan property tests assert
// that precondition).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "nand/geometry.h"
#include "obs/metrics.h"
#include "version/hash.h"
#include "version/range_policy.h"

namespace insider::version {

/// One retained version of one LBA. Tombstone records mark "this LBA was
/// trimmed at written_at" and carry no payload object; they let a selective
/// rollback reproduce a deletion, but — unlike data versions — their NAND
/// page is freed immediately, so they are best-effort across power loss.
struct VersionRecord {
  SimTime written_at = 0;  ///< logical write time of this version (OOB)
  PayloadHash hash = 0;    ///< content address; meaningless when tombstone
  bool tombstone = false;
};

/// A stored payload: the NAND page holding the bytes, shared by every
/// version record (any LBA) whose content hashes to this object's key.
struct StoreObject {
  nand::Ppa ppa = nand::kInvalidPpa;
  std::uint32_t refcount = 0;
};

/// What the FTL should do with the just-released page after Archive().
enum class ArchiveResult : std::uint8_t {
  kStored,   ///< page became a canonical object: keep it on NAND (kArchived)
  kDeduped,  ///< identical payload already stored: page is reclaimable
  kDropped,  ///< policy pruned the version immediately: page is reclaimable
};

class VersionStore {
 public:
  /// Invoked with the NAND page of every object the store stops needing
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
  /// page currently holding the payload (ignored for tombstones). Pruning
  /// of the LBA's chain runs inline; `release` fires for every *other*
  /// object page this drops — never for `ppa` itself (if the new record is
  /// pruned on arrival the call simply returns kDropped).
  ArchiveResult Archive(Lba lba, nand::Ppa ppa, SimTime written_at,
                        PayloadHash hash, bool tombstone, SimTime now,
                        const ReleaseFn& release);

  /// Ages every chain against its range policy. Cheap when nothing can have
  /// expired (tracks the next due time); called from the FTL's periodic
  /// release path.
  void PruneExpired(SimTime now, const ReleaseFn& release);
  /// Earliest time PruneExpired() could have work; max() when none pending.
  SimTime NextDue() const { return next_due_; }

  /// Space-pressure valve: drops the globally oldest records until at least
  /// `max_pages` object pages were freed or the store is empty. Returns the
  /// number of pages actually freed (0 means the store has nothing left).
  std::size_t EvictOldest(std::size_t max_pages, const ReleaseFn& release);

  /// GC moved an object's page. Returns false if `from` holds no object.
  bool Relocate(nand::Ppa from, nand::Ppa to);

  /// The page at `ppa` was lost to media errors: drops its object and every
  /// record (any chain) referencing that content. Returns records removed.
  std::size_t DropPpa(nand::Ppa ppa);

  /// Forgets everything (power-loss rebuild wipes volatile state first).
  /// Monotonic metric counters are preserved.
  void Clear();

  // -- Lookup ------------------------------------------------------------
  /// The version chain of `lba`, oldest first; nullptr when none retained.
  const std::vector<VersionRecord>* ChainOf(Lba lba) const;
  /// NAND page holding the payload for `hash`, if stored.
  std::optional<nand::Ppa> ObjectPpa(PayloadHash hash) const;
  /// Content hash of the object stored at `ppa`, if any (auditor use).
  std::optional<PayloadHash> HashAt(nand::Ppa ppa) const;
  std::uint32_t RefcountOf(PayloadHash hash) const;

  std::size_t ObjectCount() const { return objects_.size(); }
  std::size_t VersionCount() const { return record_count_; }

  /// NAND bytes pinned by object pages.
  std::uint64_t StoreBytes(std::uint64_t page_size) const {
    return static_cast<std::uint64_t>(objects_.size()) * page_size;
  }
  /// DRAM footprint of the index at packed (firmware-struct) widths:
  /// 16 B per object (hash + ppa + refcount), 17 B per chain record
  /// (written_at + hash + flags) — the honest Table III-style cost.
  std::uint64_t DramBytes() const {
    return static_cast<std::uint64_t>(objects_.size()) * kPackedObjectBytes +
           static_cast<std::uint64_t>(record_count_) * kPackedRecordBytes;
  }
  static constexpr std::uint64_t kPackedObjectBytes = 16;
  static constexpr std::uint64_t kPackedRecordBytes = 17;

  void ForEachObject(
      const std::function<void(PayloadHash, const StoreObject&)>& fn) const;
  void ForEachChain(
      const std::function<void(Lba, const std::vector<VersionRecord>&)>& fn)
      const;

  /// Registers the standard metric set (version.*) and keeps it updated.
  void AttachMetrics(obs::MetricsRegistry* registry, std::uint64_t page_size);

  /// Point-in-time copy of the store's index for checkpointing. Holds only
  /// DRAM metadata (chains, object directory); the payload pages themselves
  /// live on NAND and survive power loss on their own.
  struct Snapshot {
    std::map<Lba, std::vector<VersionRecord>> chains;
    std::unordered_map<PayloadHash, StoreObject> objects;
    std::unordered_map<nand::Ppa, PayloadHash> by_ppa;
    std::size_t record_count = 0;
    std::vector<std::size_t> per_range_records;
    SimTime next_due = std::numeric_limits<SimTime>::max();

    /// Packed serialized size, for modeling checkpoint media cost.
    std::uint64_t PackedBytes() const {
      return static_cast<std::uint64_t>(objects.size()) * kPackedObjectBytes +
             static_cast<std::uint64_t>(record_count) * kPackedRecordBytes;
    }
  };
  Snapshot SnapshotState() const;
  /// Restores the index from a snapshot. Metric handles and monotonic
  /// counters are preserved, exactly like Clear().
  void RestoreState(const Snapshot& snapshot);

 private:
  struct Chain {
    std::vector<VersionRecord> records;  // ordered by written_at, oldest first
  };

  // Drops chain.records.front(). When the object it referenced dies and its
  // page is `guard_ppa`, sets *guarded instead of firing `release` (the page
  // never entered the archived state). Returns pages freed (0 or 1).
  std::size_t DropFront(Lba lba, Chain& chain, const ReleaseFn& release,
                        nand::Ppa guard_ppa, bool* guarded);
  // Prunes one chain under `policy`; returns pages freed.
  std::size_t PruneChain(Lba lba, Chain& chain, const RangePolicy& policy,
                         SimTime now, const ReleaseFn& release,
                         nand::Ppa guard_ppa, bool* guarded);
  // Earliest future time at which `chain` could have an expirable front.
  SimTime NextExpiry(const Chain& chain, const RangePolicy& policy) const;
  void NoteRecordAdded(Lba lba);
  void NoteRecordDropped(Lba lba);
  void RefreshGauges();

  std::shared_ptr<const RangePolicyTable> policies_;
  std::map<Lba, Chain> chains_;  // ordered: deterministic iteration
  std::unordered_map<PayloadHash, StoreObject> objects_;
  std::unordered_map<nand::Ppa, PayloadHash> by_ppa_;
  std::size_t record_count_ = 0;
  std::vector<std::size_t> per_range_records_;  // indexed like Ranges()
  /// Earliest time PruneExpired() could have work; max() when none pending.
  SimTime next_due_ = std::numeric_limits<SimTime>::max();

  // Cached metric handles (null until AttachMetrics).
  obs::Counter* m_archived_ = nullptr;
  obs::Counter* m_dedupe_hits_ = nullptr;
  obs::Counter* m_pruned_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Gauge* m_objects_ = nullptr;
  obs::Gauge* m_versions_ = nullptr;
  obs::Gauge* m_store_bytes_ = nullptr;
  obs::Gauge* m_dram_bytes_ = nullptr;
  std::vector<obs::Gauge*> m_range_versions_;
  std::uint64_t page_size_ = 0;
};

}  // namespace insider::version
