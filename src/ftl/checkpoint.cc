#include "ftl/checkpoint.h"

#include <algorithm>

#include "common/rng.h"

namespace insider::ftl {

namespace {
std::uint64_t PageStamp(std::uint64_t base, std::uint32_t position,
                        bool footer) {
  return SplitMix64(base ^ SplitMix64(position) ^
                    (footer ? 0xf007e4ull : 0ull));
}
}  // namespace

std::uint64_t FtlSnapshot::Hash() const {
  std::uint64_t h = SplitMix64(write_seq);
  h ^= SplitMix64(valid_pages) ^ SplitMix64(retained_pages + 1) ^
       SplitMix64(archived_pages + 2);
  h ^= SplitMix64(static_cast<std::uint64_t>(queue.Size()) + 3);
  h ^= SplitMix64(static_cast<std::uint64_t>(trim_journal.size()) + 4);
  h ^= SplitMix64(static_cast<std::uint64_t>(store.record_count) + 5);
  h ^= SplitMix64(static_cast<std::uint64_t>(last_release_horizon) + 6);
  return h;
}

CheckpointStore::CheckpointStore(nand::FlashArray* nand,
                                 std::vector<std::uint64_t> buffer_a,
                                 std::vector<std::uint64_t> buffer_b)
    : nand_(nand) {
  buffers_[0] = std::move(buffer_a);
  buffers_[1] = std::move(buffer_b);
}

nand::Ppa CheckpointStore::PpaOfPosition(std::uint32_t buffer,
                                         std::uint32_t position) const {
  const nand::Geometry& geo = nand_->Geo();
  const nand::BlockAddr addr = nand_->Decoder().AddrOfBlockId(
      static_cast<std::uint32_t>(
          buffers_[buffer][position / geo.pages_per_block]));
  return geo.MakePpa(addr.chip, addr.block, position % geo.pages_per_block);
}

std::uint32_t CheckpointStore::CapacityPages(std::uint32_t buffer) const {
  return static_cast<std::uint32_t>(buffers_[buffer].size()) *
         nand_->Geo().pages_per_block;
}

bool CheckpointStore::Commit(FtlSnapshot snap, SimTime now, SimTime* complete,
                             FtlStats* stats) {
  if (nand_ == nullptr) return false;
  std::uint64_t e = epoch_ + 1;
  std::uint32_t buffer = static_cast<std::uint32_t>(e % 2);
  Slot& slot = slots_[buffer];
  slot.valid = false;  // the erase below invalidates this buffer's media
  SimTime t = now;
  for (std::uint64_t block_id : buffers_[buffer]) {
    if (nand_->BlockAt(block_id).IsErased()) continue;
    const nand::BlockAddr addr = nand_->Decoder().AddrOfBlockId(
        static_cast<std::uint32_t>(block_id));
    nand::NandResult r = nand_->EraseMetaBlock(addr, t);
    t = std::max(t, r.complete_time);
    if (!r.ok()) {
      if (stats != nullptr) ++stats->checkpoint_aborts;
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
  }
  const std::uint32_t page_size = nand_->Geo().page_size;
  std::uint32_t body_pages = static_cast<std::uint32_t>(
      (snap.PackedBytes() + page_size - 1) / page_size);
  std::uint32_t total = body_pages + 2;  // header + footer
  if (total > CapacityPages(buffer)) {
    if (stats != nullptr) ++stats->checkpoint_aborts;
    if (complete != nullptr) *complete = std::max(*complete, t);
    return false;
  }
  std::uint64_t base = SplitMix64(e) ^ SplitMix64(body_pages) ^ snap.Hash();
  for (std::uint32_t pos = 0; pos < total; ++pos) {
    if (nand_->PowerCutRequested("checkpoint.flush")) {
      // Power cut mid-commit: the footer never lands, so this buffer reads
      // torn and the previous checkpoint stays authoritative.
      if (stats != nullptr) ++stats->checkpoint_aborts;
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
    bool footer = pos == total - 1;
    std::uint64_t stamp = PageStamp(base, pos, footer);
    nand::NandResult r =
        nand_->ProgramMetaPage(PpaOfPosition(buffer, pos),
                               nand::PageView{stamp}, t);
    t = std::max(t, r.complete_time);
    if (!r.ok()) {
      // Metadata program fail: the burned page tears the sequence; abort
      // and let the next interval retry into the other buffer.
      if (stats != nullptr) ++stats->checkpoint_aborts;
      if (complete != nullptr) *complete = std::max(*complete, t);
      return false;
    }
    if (stats != nullptr) ++stats->checkpoint_pages_written;
  }
  slot.epoch = e;
  slot.body_pages = body_pages;
  slot.base_stamp = base;
  slot.snapshot = std::move(snap);
  slot.valid = true;
  epoch_ = e;
  if (stats != nullptr) ++stats->checkpoints_taken;
  if (complete != nullptr) *complete = std::max(*complete, t);
  return true;
}

bool CheckpointStore::SlotMediaValid(const Slot& slot,
                                     std::uint32_t buffer) const {
  std::uint32_t footer_pos = slot.body_pages + 1;
  for (std::uint32_t pos : {0u, footer_pos}) {
    nand::Ppa ppa = PpaOfPosition(buffer, pos);
    if (!nand_->IsProgrammed(ppa) || nand_->IsBadPage(ppa)) return false;
    const std::optional<nand::PageView> media = nand_->PeekPage(ppa);
    if (!media.has_value()) return false;
    bool footer = pos == footer_pos;
    if (media->stamp != PageStamp(slot.base_stamp, pos, footer)) return false;
  }
  return true;
}

CheckpointStore::Located CheckpointStore::LocateLatestValid() const {
  Located out;
  if (nand_ == nullptr) return out;
  // Newest epoch first.
  std::uint32_t order[2] = {0, 1};
  if (slots_[1].valid &&
      (!slots_[0].valid || slots_[1].epoch > slots_[0].epoch)) {
    order[0] = 1;
    order[1] = 0;
  }
  for (std::uint32_t buffer : order) {
    const Slot& slot = slots_[buffer];
    if (!slot.valid) continue;
    out.pages_read += 2;  // header + footer validation reads
    if (!SlotMediaValid(slot, buffer)) continue;
    out.snapshot = &slot.snapshot;
    out.epoch = slot.epoch;
    return out;
  }
  return out;
}

}  // namespace insider::ftl
