#include "nand/block.h"

#include <utility>

namespace insider::nand {

void Block::MaterializePages() {
  // Full-vector materialization (not per-page growth) so that pointers into
  // pages_ handed out by Read() survive later programs of the same block.
  if (pages_.empty()) pages_.resize(pages_per_block_);
}

bool Block::Program(std::uint32_t page, PageData data) {
  if (page != write_ptr_ || IsFull()) return false;
  MaterializePages();
  pages_[page] = std::move(data);
  ++write_ptr_;
  return true;
}

bool Block::BurnPage(std::uint32_t page) {
  if (page != write_ptr_ || IsFull()) return false;
  MaterializePages();
  if (bad_.empty()) bad_.assign(pages_per_block_, false);
  pages_[page] = PageData{};
  bad_[page] = true;
  ++write_ptr_;
  return true;
}

const PageData* Block::Read(std::uint32_t page) const {
  if (!IsProgrammed(page) || IsBadPage(page)) return nullptr;
  return &pages_[page];
}

void Block::Erase() {
  for (std::uint32_t i = 0; i < write_ptr_; ++i) {
    pages_[i] = PageData{};
  }
  // A successful erase restores burned pages too; deciding whether a block
  // with program-fail history may be reused is the FTL's call, not ours.
  bad_.clear();
  write_ptr_ = 0;
  ++erase_count_;
}

std::uint64_t Block::ResidentBytesEstimate() const {
  std::uint64_t bytes = pages_.capacity() * sizeof(PageData);
  for (const PageData& p : pages_) bytes += p.bytes.capacity();
  bytes += bad_.capacity() / 8;
  return bytes;
}

}  // namespace insider::nand
