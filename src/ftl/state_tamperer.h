// Test-only corruption injector for the FTL's internal state.
//
// The seeded-corruption tests must prove the InvariantAuditor *catches* each
// violation class — an auditor that only ever passes on healthy runs is
// untestable. This class is the single, explicit backdoor those tests use to
// plant one inconsistency per class, and to reach consistent states only a
// very long run would (the recovery queue's id counter near its wrap). It
// is never linked into production paths; nothing in src/ calls it.
#pragma once

#include <cassert>

#include "ftl/page_ftl.h"

namespace insider::ftl {

class FtlStateTamperer {
 public:
  explicit FtlStateTamperer(PageFtl& ftl) : ftl_(ftl) {}

  /// Violation class 1 — stale L2P: point `lba` at an arbitrary physical
  /// page without updating P2L, page states, or NAND. Auditing afterwards
  /// must flag a stale mapping (state / reverse-map / OOB disagreement).
  void RemapLba(Lba lba, nand::Ppa ppa) { ftl_.l2p_.Set(lba, ppa); }

  /// Violation class 2a — dangling recovery-queue PPA: physically erase the
  /// NAND block holding `ppa` behind the FTL's back, so every queue entry
  /// guarding a page in that block points at vanished data.
  void EraseNandBlockUnder(nand::Ppa ppa) {
    ftl_.nand_.EraseBlock(ftl_.nand_.Decoder().BlockAddrOf(ppa), 0);
  }

  /// Violation class 2b — out-of-window backup: pretend a release pass
  /// already advanced to `horizon`; any queued entry written at or before it
  /// should have been released and must be flagged.
  void FastForwardReleaseHorizon(SimTime horizon) {
    ftl_.last_release_horizon_ = horizon;
  }

  /// Not a violation: start the recovery queue's entry ids at `id`, so a
  /// test can push across the id wrap. The queue must be empty.
  static void StartQueueIdsAt(RecoveryQueue& queue,
                              RecoveryQueue::EntryId id) {
    assert(queue.chunks_.empty() && id < RecoveryQueue::kIdModulus);
    queue.front_id_ = id;
  }
  void StartQueueIdsAt(RecoveryQueue::EntryId id) {
    StartQueueIdsAt(ftl_.queue_, id);
  }

  /// Violation class 3 — valid-count drift: skew one block's occupancy
  /// counter away from what the page states imply.
  void BumpBlockValidCounter(std::uint32_t block_id, std::int32_t delta) {
    ftl_.block_counters_[block_id].valid =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(
            ftl_.block_counters_[block_id].valid) + delta);
  }

  /// Violation class 4 — bad-block mismatch: declare a block retired in the
  /// health table while NAND still holds its live data (no evacuation, no
  /// counter update, retired totals left stale).
  void MarkRetiredWithoutEvacuation(std::uint32_t block_id) {
    ftl_.block_health_[block_id] = BlockHealth::kRetired;
  }

  /// Violation class 6 — allocator mismatch: flip `chip`'s cached ready bit
  /// so it no longer says what the chip's frontier and free pool say.
  void FlipChipReadyBit(std::uint32_t chip) {
    ftl_.ready_chips_[chip / 64] ^= std::uint64_t{1} << (chip % 64);
  }

  /// Violation class 5 — version-store mismatch: flip a programmed-but-
  /// invalid page to Archived (with the counters kept consistent, so only
  /// the store cross-checks fire: no record names this page).
  void OrphanArchivedPage(nand::Ppa ppa) {
    ftl_.page_state_.Set(ppa, PageState::kArchived);
    ++ftl_.block_counters_[ftl_.nand_.Decoder().BlockIdOf(ppa)].archived;
    ++ftl_.archived_pages_;
  }

  /// Violation class 5, reverse direction: free an archived page behind the
  /// store's back (counters kept consistent), so a data record names a page
  /// that is no longer archived.
  void UnarchivePage(nand::Ppa ppa) {
    ftl_.page_state_.Set(ppa, PageState::kInvalid);
    ftl_.p2l_.Set(ppa, kInvalidLba);
    --ftl_.block_counters_[ftl_.nand_.Decoder().BlockIdOf(ppa)].archived;
    --ftl_.archived_pages_;
    ftl_.RefreshVictim(ftl_.nand_.Decoder().BlockIdOf(ppa));
  }

 private:
  PageFtl& ftl_;
};

}  // namespace insider::ftl
