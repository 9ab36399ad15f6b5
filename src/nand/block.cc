#include "nand/block.h"

#include <utility>

namespace insider::nand {

void Block::MaterializePages() {
  // Full-array materialization (not per-page growth) so that pointers into
  // pages_ handed out by Read() survive later programs of the same block.
  if (pages_ == nullptr) {
    pages_ = std::make_unique<PageData[]>(pages_per_block_);
  }
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
  if (bad_ == nullptr) bad_ = std::make_unique<std::uint64_t[]>(BadWords());
  pages_[page] = PageData{};
  bad_[page / 64] |= std::uint64_t{1} << (page % 64);
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
  bad_.reset();
  write_ptr_ = 0;
  ++erase_count_;
}

std::uint64_t Block::ResidentBytesEstimate() const {
  if (pages_ == nullptr) return 0;
  std::uint64_t bytes =
      static_cast<std::uint64_t>(pages_per_block_) * sizeof(PageData);
  for (std::uint32_t i = 0; i < pages_per_block_; ++i) {
    bytes += pages_[i].bytes.capacity();
  }
  if (bad_ != nullptr) bytes += BadWords() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace insider::nand
