// One NAND erase block: the unit of erasure and of sequential programming.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/page_data.h"

namespace insider::nand {

/// A block enforces NAND's two physical rules: pages are programmed strictly
/// in order within the block, and a page can only be reprogrammed after the
/// whole block is erased.
///
/// Page storage is lazy: a freshly constructed block owns no page records at
/// all (an empty paper-scale device has 131,072 of these), and the payload
/// vector materializes in full on the first program so `const PageData*`
/// handed out by Read() stays stable for the block's whole program/erase
/// cycle.
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
    return page < bad_.size() && bad_[page];
  }

  /// Read a programmed page. Returns nullptr for erased pages and burned
  /// (bad) pages.
  const PageData* Read(std::uint32_t page) const;

  void Erase();

  /// True once the page-record vector has been allocated (first program).
  bool Materialized() const { return !pages_.empty(); }

  /// Resident heap estimate for the footprint regression tests: page-record
  /// vector + payload bytes + bad-page bitmap.
  std::uint64_t ResidentBytesEstimate() const;

 private:
  void MaterializePages();

  std::vector<PageData> pages_;  ///< empty until the first program
  /// Lazily sized to pages_per_block on the first burn; empty = no bad pages.
  std::vector<bool> bad_;
  std::uint32_t pages_per_block_ = 0;
  std::uint32_t write_ptr_ = 0;
  std::uint64_t erase_count_ = 0;
};

}  // namespace insider::nand
