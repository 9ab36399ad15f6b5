#include "ftl/gc_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "ftl/page_ftl.h"
#include "obs/trace.h"

namespace insider::ftl {

bool GcEngine::CollectOne(SimTime& now, std::uint32_t max_movable) {
  std::uint32_t victim = ftl_.victim_->SelectVictim(ftl_.view_, max_movable);
  if (victim == kNoVictim) return false;  // nothing reclaimable
  return CollectVictim(victim, now);
}

bool GcEngine::EvacuateBlock(std::uint32_t block_id, SimTime& now) {
  PageFtl& f = ftl_;
  const nand::Geometry& geo = f.config_.geometry;
  nand::BlockAddr addr = f.nand_.Decoder().AddrOfBlockId(block_id);
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    nand::Ppa src = geo.MakePpa(addr.chip, addr.block, p);
    PageState st = f.page_state_.Get(src);
    if (!HoldsVersion(st)) continue;

    nand::NandResult rd = f.nand_.ReadPage(src, now);
    now = rd.complete_time;
    if (!rd.ok()) {
      // The page cannot be relocated — its content is gone. Uncorrectable
      // ECC is the expected cause; any other status on a live page would
      // mean the mapping is corrupt, and losing the page is still the only
      // recovery that keeps the device up. A valid page loses its mapping;
      // a retained page loses its backup; an archived page loses every
      // version record that referenced its content.
      ++f.stats_.gc_lost_pages;
      f.stats_.archived_lost += f.DropPage(src);
      f.JournalAppend({JournalOpKind::kDrop, /*flag=*/false, 0, src,
                       nand::kInvalidPpa, 0, now, 0});
      continue;
    }
    // Relocation preserves the version's OOB identity (lba, written_at);
    // only the program sequence number is fresh. A program fault on the
    // destination is absorbed by the re-drive. The copy programs straight
    // from the source's view: nothing erases the victim before it is empty.
    nand::Ppa dst = f.ProgramWithRedrive(*rd.data, now);
    if (dst == nand::kInvalidPpa) {  // reserve exhausted
      f.RefreshVictim(block_id);
      return false;
    }

    ++f.stats_.gc_page_copies;
    if (st == PageState::kRetained) ++f.stats_.gc_retained_copies;
    bool moved = f.MovePage(src, dst);
    assert(moved);
    (void)moved;
    // `write_seq_` is exactly the destination page's OOB sequence here: the
    // re-drive loop journals its own kBurn consumption records.
    f.JournalAppend({JournalOpKind::kRelocate, /*flag=*/false, 0, src, dst,
                     f.write_seq_, now, 0});
  }
  // The source's counters only fell; re-key it once rather than per page.
  // (Each destination is its chip's frontier, never an index member.)
  f.RefreshVictim(block_id);
  return true;
}

bool GcEngine::CollectVictim(std::uint32_t victim, SimTime& now) {
  PageFtl& f = ftl_;
  const nand::Geometry& geo = f.config_.geometry;
  nand::BlockAddr addr = f.nand_.Decoder().AddrOfBlockId(victim);
  if (!EvacuateBlock(victim, now)) return false;

  // Erase-intent protocol: an erase destroys OOB history the rebuild scan
  // would otherwise read back, so every record up to and including the
  // intent must be durable *before* the block is erased. Replay compares the
  // recorded erase count against media to decide whether the erase landed.
  if (f.journal_.Enabled() && !f.replaying_) {
    const JournalRecord intent{JournalOpKind::kEraseIntent, /*flag=*/false, 0,
                               victim, nand::kInvalidPpa,
                               f.nand_.BlockAt(victim).EraseCount(), now, 0};
    f.JournalAppend(intent);
    if (!f.JournalFlushAll(now)) {
      // Region exhausted or the flush tore: a committed checkpoint clears
      // the journal, so re-stage the intent on the fresh region and retry.
      now = std::max(now, f.TakeCheckpoint(now));
      f.JournalAppend(intent);
      if (!f.JournalFlushAll(now)) {
        // Still not durable (metadata faults). Skipping the erase keeps the
        // O(Δ) contract; the caller falls through to forced releases, and a
        // crash in this state rebuilds via the full-scan fallback.
        return false;
      }
    }
  }

  nand::NandResult er = f.nand_.EraseBlock(addr, now);
  now = er.complete_time;
  if (!er.ok()) {
    // Erase fault: the block grew bad. It is already evacuated, so retire
    // it on the spot. Return true — the victim left GC's candidate set, so
    // the caller's loop makes progress even though no block was freed.
    ++f.stats_.erase_fails;
    obs::EmitInstant(f.tracer_, "ftl.retire_block", "ftl", 0, now,
                     static_cast<std::int64_t>(victim), "block");
    f.RetireBlock(victim);
    return true;
  }
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    f.page_state_.Set(geo.MakePpa(addr.chip, addr.block, p), PageState::kFree);
  }
  assert(f.block_counters_[victim].Movable() == 0);
  f.RefreshVictim(victim);
  f.RecycleBlock(victim);
  ++f.stats_.gc_erases;
  return true;
}

bool GcEngine::DrainRetirements(SimTime& now) {
  PageFtl& f = ftl_;
  // Evacuation can itself hit program faults and flag more blocks; the loop
  // picks those up too. A block whose evacuation stalls (frontier dry)
  // stays flagged for the next call.
  while (!f.pending_retire_.empty()) {
    std::uint32_t block_id = f.pending_retire_.back();
    if (!EvacuateBlock(block_id, now)) return false;
    // Evacuation may have flagged more blocks, so this one is not
    // necessarily still at the back — erase it by value.
    f.pending_retire_.erase(std::find(f.pending_retire_.begin(),
                                      f.pending_retire_.end(), block_id));
    obs::EmitInstant(f.tracer_, "ftl.retire_block", "ftl", 0, now,
                     static_cast<std::int64_t>(block_id), "block");
    f.RetireBlock(block_id);
    f.JournalAppend({JournalOpKind::kRetireBlock, /*flag=*/false, 0, block_id,
                     nand::kInvalidPpa, 0, now, 0});
  }
  return true;
}

bool GcEngine::EnsureFreeSpace(SimTime& now) {
  PageFtl& f = ftl_;
  if (f.free_block_count_ > f.config_.gc_reserve_blocks) return true;
  ++f.stats_.gc_invocations;
  const SimTime start = now;
  // Any full block that frees at least one page qualifies.
  const std::uint32_t max_movable = f.config_.geometry.pages_per_block - 1;
  bool ok = true;
  while (f.free_block_count_ <= f.config_.gc_reserve_blocks) {
    if (!CollectOne(now, max_movable)) {
      // Nothing reclaimable: every block is valid or retained. When the
      // recovery queue holds backups, sacrifice the oldest ones (losing
      // their recoverability, as a capacity-bounded queue would) so GC can
      // make progress; otherwise the device is genuinely full.
      if (f.config_.delayed_deletion && !f.queue_.Empty()) {
        // One erase block's worth, so a forced round can actually make a
        // block reclaimable.
        const std::uint32_t batch = f.config_.geometry.pages_per_block;
        for (std::uint32_t i = 0; i < batch; ++i) {
          std::optional<BackupEntry> e = f.queue_.PopOldest();
          if (!e) break;
          f.ReleaseBackup(*e, now);
          ++f.stats_.forced_releases;
          f.JournalAppend({JournalOpKind::kForcedRelease, /*flag=*/false, 0,
                           nand::kInvalidPpa, nand::kInvalidPpa, 0, now, 0});
        }
        continue;
      }
      // The ring is dry. If the version store still pins archived pages,
      // sacrifice the oldest versions next — protected ranges degrade last,
      // but they do degrade before the device refuses writes.
      if (f.store_.VersionCount() > 0) {
        const std::uint32_t batch = f.config_.geometry.pages_per_block;
        std::size_t freed = f.store_.EvictOldest(
            batch, [&f](nand::Ppa p) {
              f.ReleaseArchived(p);
              ++f.stats_.archived_evictions;
            });
        if (freed > 0) {
          f.JournalAppend({JournalOpKind::kStoreEvict, /*flag=*/false, 0,
                           batch, nand::kInvalidPpa, 0, now, 0});
          continue;
        }
      }
      ok = f.free_block_count_ > 0;
      break;
    }
  }
  f.stats_.gc_stall_time += now - start;
  if (now > start) {
    obs::EmitSpan(f.tracer_, "ftl.gc_stall", "ftl", 0, start, now,
                  static_cast<std::int64_t>(f.free_block_count_),
                  "free_blocks_after");
  }
  if (f.gc_stall_hist_ != nullptr) {
    f.gc_stall_hist_->Add(static_cast<double>(now - start));
  }
  return ok;
}

std::size_t GcEngine::BackgroundCollect(SimTime now, std::size_t max_blocks) {
  PageFtl& f = ftl_;
  const std::uint32_t max_movable = f.config_.geometry.pages_per_block - 1;
  std::size_t reclaimed = 0;
  SimTime t = now;
  while (reclaimed < max_blocks &&
         f.free_block_count_ < f.config_.gc_high_watermark_blocks) {
    if (!CollectOne(t, max_movable)) break;
    ++reclaimed;
  }
  f.stats_.gc_background_blocks += reclaimed;
  return reclaimed;
}

std::size_t GcEngine::CollectCheap(SimTime now, std::size_t max_blocks,
                                   std::uint32_t max_movable) {
  PageFtl& f = ftl_;
  const nand::Geometry& geo = f.config_.geometry;
  // Idle GC only takes cheap wins; expensive relocation stays with the
  // foreground path that actually needs space. The cap never admits a fully
  // live block — copying all of it reclaims nothing.
  const std::uint32_t cap =
      std::min(max_movable, geo.pages_per_block - 1);
  std::size_t reclaimed = 0;
  SimTime t = now;
  while (reclaimed < max_blocks && CollectOne(t, cap)) ++reclaimed;
  return reclaimed;
}

}  // namespace insider::ftl
