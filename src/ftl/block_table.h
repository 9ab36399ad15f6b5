// FTL-owned dense per-erase-block state and the greedy victim index.
//
// Allocation runs once per page program and victim selection once per GC
// round, so the per-block facts both need live here, in flat arrays indexed
// by global block id, rather than behind the NAND array's lazily
// materialized block objects (a pointer chase per query, 131,072 blocks on
// a paper-scale device).
//
//   BlockTable   mirror of each data block's write pointer and erase count,
//                plus the reserved-metadata flag. The FTL issues every
//                data-path program and erase, so it advances the mirror as
//                it goes; a power-loss rebuild reloads it from media.
//   VictimIndex  the reclaimable blocks bucketed by movable-page count, each
//                bucket a min-heap on (erase count, block id). The lowest
//                non-empty bucket's top is exactly the block the classic
//                greedy scan picks — fewest movable pages, then least worn,
//                then lowest id — found without visiting any other block.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider::ftl {

/// Mirror of the media facts policies select on, for data blocks. Reserved
/// metadata blocks are flagged and otherwise not tracked (their programs go
/// through the checkpoint/journal path, never the data path).
class BlockTable {
 public:
  void Reset(const nand::Geometry& geometry);

  std::uint32_t WritePointer(std::uint32_t block) const {
    return media_[block].write_ptr;
  }
  bool IsFull(std::uint32_t block) const {
    return media_[block].write_ptr == pages_per_block_;
  }
  std::uint32_t EraseCount(std::uint32_t block) const {
    return media_[block].erase_count;
  }
  bool IsReserved(std::uint32_t block) const { return reserved_[block] != 0; }

  void MarkReserved(std::uint32_t block) { reserved_[block] = 1; }
  /// One page position consumed (a successful or a burned program).
  void OnProgram(std::uint32_t block) { ++media_[block].write_ptr; }
  void OnErase(std::uint32_t block) {
    media_[block].write_ptr = 0;
    ++media_[block].erase_count;
  }
  /// Reload every data block's write pointer and erase count from media.
  void LoadFromMedia(const nand::FlashArray& nand);

  std::uint64_t ResidentBytes() const {
    return media_.capacity() * sizeof(Media) + reserved_.capacity();
  }

 private:
  struct Media {
    std::uint32_t write_ptr = 0;
    std::uint32_t erase_count = 0;
  };

  std::uint32_t pages_per_block_ = 0;
  std::vector<Media> media_;
  std::vector<std::uint8_t> reserved_;
};

/// Greedy victim index. Members are the blocks GC may reclaim; the owner
/// keeps membership and keys current (PageFtl::RefreshVictim). Lowest() is
/// one bitmap walk over the buckets plus one heap top; Place() and Remove()
/// cost O(log bucket size).
class VictimIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void Reset(std::uint32_t total_blocks, std::uint32_t pages_per_block);
  void Clear();

  /// Insert `block`, or re-key it if its movable count changed. The erase
  /// count is part of the key; callers must Remove() a block before its
  /// erase count changes.
  void Place(std::uint32_t block, std::uint32_t movable,
             std::uint32_t erase_count) {
    if (slot_[block].bucket == movable) return;
    if (slot_[block].bucket != kNone) Remove(block);
    Insert(block, movable, erase_count);
  }
  void Remove(std::uint32_t block);

  /// The member with the fewest movable pages, at most `max_movable`; ties
  /// go to the lower erase count, then the lower block id. kNone when no
  /// member qualifies.
  std::uint32_t Lowest(std::uint32_t max_movable) const;

  bool Contains(std::uint32_t block) const {
    return slot_[block].bucket != kNone;
  }
  /// Movable count `block` is keyed under (kNone when not a member).
  std::uint32_t KeyOf(std::uint32_t block) const { return slot_[block].bucket; }
  /// Erase count `block` is keyed under; valid only for members.
  std::uint32_t EraseKeyOf(std::uint32_t block) const {
    const Slot& s = slot_[block];
    return static_cast<std::uint32_t>(buckets_[s.bucket][s.pos] >> 32);
  }
  std::size_t Size() const { return size_; }

  std::uint64_t ResidentBytes() const;

 private:
  /// Heap entry: erase count in the high word, block id in the low word, so
  /// one integer comparison orders by (erase count, block id).
  using Entry = std::uint64_t;
  static std::uint32_t BlockOf(Entry e) {
    return static_cast<std::uint32_t>(e);
  }

  void Insert(std::uint32_t block, std::uint32_t movable,
              std::uint32_t erase_count);
  void SiftUp(std::vector<Entry>& heap, std::uint32_t i);
  void SiftDown(std::vector<Entry>& heap, std::uint32_t i);
  void Put(std::vector<Entry>& heap, std::uint32_t i, Entry e) {
    heap[i] = e;
    slot_[BlockOf(e)].pos = i;
  }

  /// Where a block sits: its bucket (kNone = absent) and heap position.
  struct Slot {
    std::uint32_t bucket = kNone;
    std::uint32_t pos = 0;
  };

  std::vector<std::vector<Entry>> buckets_;  ///< index = movable pages
  std::vector<std::uint64_t> nonempty_;      ///< bit per bucket
  std::vector<Slot> slot_;                   ///< per block
  std::size_t size_ = 0;
};

}  // namespace insider::ftl
