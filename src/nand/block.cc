#include "nand/block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace insider::nand {

bool Block::Advance(std::uint32_t page) {
  if (page != write_ptr_ || IsFull()) return false;
  // Whole-array allocation (not per-page growth) so records never move.
  // No zero-fill: Read() only reaches records below the write pointer.
  if (pages_ == nullptr) {
    pages_ = std::make_unique_for_overwrite<PageRecord[]>(pages_per_block_);
  }
  ++write_ptr_;
  return true;
}

Block::Side& Block::SideStore() {
  if (side_ == nullptr) side_ = std::make_unique<Side>();
  return *side_;
}

bool Block::Program(std::uint32_t page, const PageView& data) {
  assert((data.oob.seq & kTombstoneBit) == 0);  // the record's flag bit
  if (!Advance(page)) return false;
  pages_[page] = {data.stamp, data.oob.lba,
                  data.oob.seq | (data.oob.tombstone ? kTombstoneBit : 0),
                  data.oob.written_at};
  if (!data.bytes.empty()) {
    Payload payload{
        std::make_unique_for_overwrite<std::byte[]>(data.bytes.size()),
        data.bytes.size(), page};
    std::memcpy(payload.bytes.get(), data.bytes.data(), data.bytes.size());
    Side& side = SideStore();
    side.payload_bytes += payload.size;
    side.payloads.push_back(std::move(payload));
  }
  return true;
}

bool Block::BurnPage(std::uint32_t page) {
  if (!Advance(page)) return false;
  Side& side = SideStore();
  if (side.bad == nullptr) {
    side.bad = std::make_unique<std::uint64_t[]>(BadWords());
  }
  side.bad[page / 64] |= std::uint64_t{1} << (page % 64);
  return true;
}

std::span<const std::byte> Block::PayloadOf(std::uint32_t page) const {
  const std::vector<Payload>& all = side_->payloads;
  auto it = std::lower_bound(all.begin(), all.end(), page,
                             [](const Payload& p, std::uint32_t pg) {
                               return p.page < pg;
                             });
  if (it == all.end() || it->page != page) return {};
  return {it->bytes.get(), it->size};
}

void Block::Erase() {
  // A successful erase restores burned pages too; deciding whether a block
  // with program-fail history may be reused is the FTL's call, not ours.
  side_.reset();
  write_ptr_ = 0;
  ++erase_count_;
}

std::uint64_t Block::ResidentBytesEstimate() const {
  if (pages_ == nullptr) return 0;
  std::uint64_t bytes =
      static_cast<std::uint64_t>(pages_per_block_) * sizeof(PageRecord);
  if (side_ != nullptr) {
    bytes += sizeof(Side) + side_->payloads.capacity() * sizeof(Payload) +
             side_->payload_bytes;
    if (side_->bad != nullptr) bytes += BadWords() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace insider::nand
