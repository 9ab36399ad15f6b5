// The greedy victim index: the reclaimable blocks bucketed by movable-page
// count, each bucket a min-heap on (erase count, block id). The lowest
// non-empty bucket's top is exactly the block the classic greedy scan picks
// — fewest movable pages, then least worn, then lowest id — found without
// visiting any other block (a paper-scale device has 131,072 blocks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace insider::ftl {

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
