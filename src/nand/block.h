// One NAND erase block: the unit of erasure and of sequential programming.
#pragma once

#include <cstdint>
#include <memory>

#include "nand/page_data.h"

namespace insider::nand {

/// A block enforces NAND's two physical rules: pages are programmed strictly
/// in order within the block, and a page can only be reprogrammed after the
/// whole block is erased.
///
/// Page storage is lazy: a freshly constructed block owns no page records at
/// all (an empty paper-scale device has 131,072 of these, 32 bytes each),
/// and the page array materializes in full on the first program so
/// `const PageData*` handed out by Read() stays stable for the block's whole
/// program/erase cycle.
class Block {
 public:
  explicit Block(std::uint32_t pages_per_block)
      : pages_per_block_(pages_per_block) {}

  std::uint32_t PagesPerBlock() const { return pages_per_block_; }

  /// Next page that may legally be programmed; == PagesPerBlock() when full.
  std::uint32_t WritePointer() const { return write_ptr_; }
  bool IsFull() const { return write_ptr_ == pages_per_block_; }
  bool IsErased() const { return write_ptr_ == 0; }
  std::uint64_t EraseCount() const { return erase_count_; }

  bool IsProgrammed(std::uint32_t page) const { return page < write_ptr_; }

  /// Program the page at the write pointer. Returns false (and changes
  /// nothing) on a rule violation: out-of-order program or programming a
  /// full block.
  bool Program(std::uint32_t page, PageData data);

  /// A program attempt on the page at the write pointer failed: the page's
  /// cells are in an indeterminate state. The write pointer still advances
  /// (the position is consumed — NAND cannot retry in place) and the page is
  /// marked bad: reads return uncorrectable. Same rule checks as Program.
  bool BurnPage(std::uint32_t page);

  /// True when the page was consumed by a failed program (unreadable).
  bool IsBadPage(std::uint32_t page) const {
    return page < write_ptr_ && bad_ != nullptr &&
           ((bad_[page / 64] >> (page % 64)) & 1u) != 0;
  }

  /// Read a programmed page. Returns nullptr for erased pages and burned
  /// (bad) pages.
  const PageData* Read(std::uint32_t page) const;

  void Erase();

  /// True once the page-record array has been allocated (first program).
  bool Materialized() const { return pages_ != nullptr; }

  /// Resident heap estimate for the footprint regression tests: page-record
  /// array + payload bytes + bad-page bitmap.
  std::uint64_t ResidentBytesEstimate() const;

 private:
  void MaterializePages();
  std::uint32_t BadWords() const { return (pages_per_block_ + 63) / 64; }

  /// pages_per_block_ records once the block is first programmed; null
  /// before.
  std::unique_ptr<PageData[]> pages_;
  /// One bit per page, allocated on the first burn; null = no bad pages.
  std::unique_ptr<std::uint64_t[]> bad_;
  std::uint32_t pages_per_block_ = 0;
  std::uint32_t write_ptr_ = 0;
  std::uint64_t erase_count_ = 0;
};

}  // namespace insider::nand
