#include "ftl/mapping_journal.h"

#include <algorithm>

#include "common/rng.h"

namespace insider::ftl {

MappingJournal::MappingJournal(nand::FlashArray* nand,
                               std::vector<std::uint64_t> region_a,
                               std::vector<std::uint64_t> region_b,
                               std::uint32_t records_per_page)
    : nand_(nand), records_per_page_(std::max(1u, records_per_page)) {
  regions_[0] = std::move(region_a);
  regions_[1] = std::move(region_b);
}

std::uint32_t MappingJournal::CapacityPages() const {
  if (nand_ == nullptr) return 0;
  return static_cast<std::uint32_t>(regions_[epoch_ % 2].size()) *
         nand_->Geo().pages_per_block;
}

double MappingJournal::UsageFraction() const {
  std::uint32_t cap = CapacityPages();
  if (cap == 0) return 0.0;
  return static_cast<double>(next_position_) / static_cast<double>(cap);
}

nand::Ppa MappingJournal::PpaOfPosition(std::uint32_t position) const {
  const std::vector<std::uint64_t>& region = regions_[epoch_ % 2];
  std::uint32_t ppb = nand_->Geo().pages_per_block;
  std::uint64_t block_id = region[position / ppb];
  std::uint32_t chip =
      static_cast<std::uint32_t>(block_id / nand_->Geo().blocks_per_chip);
  std::uint32_t block =
      static_cast<std::uint32_t>(block_id % nand_->Geo().blocks_per_chip);
  return nand_->Geo().MakePpa(chip, block, position % ppb);
}

std::uint64_t MappingJournal::StampOf(std::uint64_t epoch,
                                      std::uint32_t position,
                                      const std::vector<JournalRecord>& batch) {
  std::uint64_t h = SplitMix64(epoch) ^ SplitMix64(0x10000ull + position);
  for (const JournalRecord& r : batch) {
    h = SplitMix64(h ^ static_cast<std::uint64_t>(r.kind));
    h = SplitMix64(h ^ r.lba) ^ SplitMix64(r.ppa) ^ SplitMix64(r.ppa2) ^
        SplitMix64(r.seq);
    h = SplitMix64(h ^ static_cast<std::uint64_t>(r.t1)) ^
        SplitMix64(static_cast<std::uint64_t>(r.t2) + (r.flag ? 1u : 0u));
  }
  return h;
}

bool MappingJournal::Flush(SimTime now, SimTime* complete, FtlStats* stats) {
  if (nand_ == nullptr) return true;
  SimTime t = now;
  while (!pending_.empty()) {
    if (next_position_ >= CapacityPages()) {
      if (!overflow_noted_ && stats != nullptr) {
        ++stats->journal_overflows;
        overflow_noted_ = true;
      }
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
    if (nand_->PowerCutRequested("journal.flush")) {
      // Power is being cut mid-flush: the rest of the batch never reaches
      // media. Already-programmed pages stay durable; the remainder stays
      // pending and dies with DRAM.
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
    std::size_t n = std::min<std::size_t>(records_per_page_, pending_.size());
    std::vector<JournalRecord> batch(pending_.begin(),
                                     pending_.begin() +
                                         static_cast<std::ptrdiff_t>(n));
    std::uint64_t stamp = StampOf(epoch_, next_position_, batch);
    nand::NandResult r = nand_->ProgramMetaPage(
        PpaOfPosition(next_position_), nand::PageView{stamp}, t);
    t = std::max(t, r.complete_time);
    if (r.status == nand::NandStatus::kProgramFail) {
      // Burned slot: redrive the same batch to the next position.
      ++next_position_;
      continue;
    }
    if (!r.ok()) {
      // Block unusable (e.g. a failed region erase left it full): treat the
      // region as overflowed so the rebuild falls back to a full scan.
      if (!overflow_noted_ && stats != nullptr) {
        ++stats->journal_overflows;
        overflow_noted_ = true;
      }
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
    durable_.push_back(DurablePage{epoch_, next_position_, stamp,
                                   std::move(batch)});
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));
    ++next_position_;
    if (stats != nullptr) ++stats->journal_pages_flushed;
  }
  if (complete != nullptr) *complete = std::max(*complete, t);
  return true;
}

void MappingJournal::StartEpoch(std::uint64_t epoch, SimTime now,
                                SimTime* complete) {
  if (nand_ == nullptr) return;
  epoch_ = epoch;
  next_position_ = 0;
  overflow_noted_ = false;
  pending_.clear();
  durable_.clear();
  SimTime t = now;
  for (std::uint64_t block_id : regions_[epoch_ % 2]) {
    if (nand_->BlockAt(block_id).IsErased()) continue;
    const nand::BlockAddr addr = nand_->Decoder().AddrOfBlockId(
        static_cast<std::uint32_t>(block_id));
    nand::NandResult r = nand_->EraseMetaBlock(addr, t);
    t = std::max(t, r.complete_time);
    // An erase fail leaves the block full; Flush() reports overflow when it
    // reaches it, and the rebuild falls back to a full scan. Nothing else
    // to do here.
  }
  if (complete != nullptr) *complete = std::max(*complete, t);
}

MappingJournal::Tail MappingJournal::ValidTail(
    std::uint64_t expected_epoch) const {
  Tail tail;
  if (nand_ == nullptr) return tail;
  tail.pages_read = 1;  // horizon probe
  for (const DurablePage& page : durable_) {
    if (page.epoch != expected_epoch) break;
    nand::Ppa ppa = PpaOfPosition(page.position);
    if (!nand_->IsProgrammed(ppa) || nand_->IsBadPage(ppa)) break;
    const std::optional<nand::PageView> media = nand_->PeekPage(ppa);
    if (!media.has_value() || media->stamp != page.stamp) break;
    ++tail.pages_read;
    tail.records.insert(tail.records.end(), page.records.begin(),
                        page.records.end());
  }
  // Overflow marker: no free page left in the active region. This is the
  // only state in which an erase can have gone un-journaled (the GC skips
  // the erase whenever the intent record cannot be flushed), so the caller
  // must fall back to the full OOB scan.
  tail.region_full = next_position_ >= CapacityPages();
  return tail;
}

}  // namespace insider::ftl
