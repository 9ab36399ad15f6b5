// One NAND erase block: the unit of erasure and of sequential programming.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nand/page_data.h"

namespace insider::nand {

/// A block enforces NAND's two physical rules: pages are programmed strictly
/// in order within the block, and a page can only be reprogrammed after the
/// whole block is erased.
///
/// Page storage is lazy and sized to what a page carries on media: a freshly
/// constructed block owns nothing (an empty paper-scale device has 131,072
/// of these 32-byte headers); the first program allocates one 32-byte record
/// per page (stamp + OOB), and everything most pages never need — payload
/// bytes and the bad-page bitmap — lives in one side structure allocated on
/// first use and freed by Erase().
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

  /// Program the page at the write pointer with a copy of `data` (its bytes
  /// may point into another block: GC copies straight from a read view).
  /// Returns false (and changes nothing) on a rule violation: out-of-order
  /// program or programming a full block.
  bool Program(std::uint32_t page, const PageView& data);

  /// A program attempt on the page at the write pointer failed: the page's
  /// cells are in an indeterminate state. The write pointer still advances
  /// (the position is consumed — NAND cannot retry in place) and the page is
  /// marked bad: reads return uncorrectable. Same rule checks as Program.
  bool BurnPage(std::uint32_t page);

  /// True when the page was consumed by a failed program (unreadable).
  bool IsBadPage(std::uint32_t page) const {
    return page < write_ptr_ && side_ != nullptr && side_->bad != nullptr &&
           ((side_->bad[page / 64] >> (page % 64)) & 1u) != 0;
  }

  /// Read a programmed page. Empty for erased pages and burned (bad) pages.
  /// The view's bytes stay valid until this block is erased.
  std::optional<PageView> Read(std::uint32_t page) const {
    if (!IsProgrammed(page) || IsBadPage(page)) return std::nullopt;
    const PageRecord& rec = pages_[page];
    return PageView{rec.stamp,
                    {rec.lba, rec.seq & ~kTombstoneBit, rec.written_at,
                     (rec.seq & kTombstoneBit) != 0},
                    side_ != nullptr && !side_->payloads.empty()
                        ? PayloadOf(page)
                        : std::span<const std::byte>{}};
  }

  /// Reset the write pointer and free every payload and the bad-page
  /// bitmap; the record array stays allocated for the next cycle.
  void Erase();

  /// True once the page-record array has been allocated (first program).
  bool Materialized() const { return pages_ != nullptr; }

  /// Resident heap estimate for the footprint regression tests: record
  /// array + side structure (bitmap, payload handles, payload bytes). O(1).
  std::uint64_t ResidentBytesEstimate() const;

 private:
  /// One page as it sits on media: 8 B stamp + the 24 B OOB record.
  struct PageRecord {
    std::uint64_t stamp;
    std::uint64_t lba;
    std::uint64_t seq;  ///< top bit: tombstone flag
    SimTime written_at;
  };
  static_assert(sizeof(PageRecord) == 32);

  /// Bytes of one page that was programmed with a payload. The buffer is
  /// its own allocation, so a view into it survives later programs.
  struct Payload {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t size = 0;
    std::uint32_t page = 0;
  };

  /// What most pages never use, allocated on a block's first burn or
  /// payload program.
  struct Side {
    /// One bit per page, allocated on the first burn; null = no bad pages.
    std::unique_ptr<std::uint64_t[]> bad;
    /// In page order (programs are sequential), so Read() binary-searches.
    std::vector<Payload> payloads;
    std::uint64_t payload_bytes = 0;
  };

  static constexpr std::uint64_t kTombstoneBit = std::uint64_t{1} << 63;

  /// Claims `page` at the write pointer, allocating the record array on the
  /// block's first program; false on a sequencing violation.
  bool Advance(std::uint32_t page);
  Side& SideStore();
  /// The bytes `page` was programmed with; empty when it had none.
  std::span<const std::byte> PayloadOf(std::uint32_t page) const;
  std::uint32_t BadWords() const { return (pages_per_block_ + 63) / 64; }

  /// pages_per_block_ records once the block is first programmed; null
  /// before. Records at or past the write pointer are uninitialized.
  std::unique_ptr<PageRecord[]> pages_;
  std::unique_ptr<Side> side_;
  std::uint32_t pages_per_block_ = 0;
  std::uint32_t write_ptr_ = 0;
  std::uint64_t erase_count_ = 0;
};

// The flat paper-scale block array (131,072 headers) must stay megabytes.
static_assert(sizeof(Block) <= 32);

}  // namespace insider::nand
