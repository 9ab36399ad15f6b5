#include "ftl/victim_index.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace insider::ftl {

void VictimIndex::Reset(std::uint32_t total_blocks,
                        std::uint32_t pages_per_block) {
  buckets_.assign(static_cast<std::size_t>(pages_per_block) + 1, {});
  nonempty_.assign(buckets_.size() / 64 + 1, 0);
  slot_.assign(total_blocks, Slot{});
  size_ = 0;
}

void VictimIndex::Clear() {
  for (std::vector<Entry>& heap : buckets_) {
    for (Entry e : heap) slot_[BlockOf(e)].bucket = kNone;
    heap.clear();
  }
  std::fill(nonempty_.begin(), nonempty_.end(), 0);
  size_ = 0;
}

void VictimIndex::Insert(std::uint32_t block, std::uint32_t movable,
                         std::uint32_t erase_count) {
  assert(movable < buckets_.size());
  std::vector<Entry>& heap = buckets_[movable];
  slot_[block].bucket = movable;
  heap.push_back(0);
  Put(heap, static_cast<std::uint32_t>(heap.size() - 1),
      (static_cast<Entry>(erase_count) << 32) | block);
  SiftUp(heap, static_cast<std::uint32_t>(heap.size() - 1));
  nonempty_[movable / 64] |= std::uint64_t{1} << (movable % 64);
  ++size_;
}

void VictimIndex::Remove(std::uint32_t block) {
  const std::uint32_t movable = slot_[block].bucket;
  if (movable == kNone) return;
  std::vector<Entry>& heap = buckets_[movable];
  const std::uint32_t i = slot_[block].pos;
  const Entry last = heap.back();
  heap.pop_back();
  slot_[block].bucket = kNone;
  --size_;
  if (heap.empty()) {
    nonempty_[movable / 64] &= ~(std::uint64_t{1} << (movable % 64));
    return;
  }
  if (i == heap.size()) return;  // removed the last slot
  Put(heap, i, last);
  if (i > 0 && heap[(i - 1) / 2] > last) {
    SiftUp(heap, i);
  } else {
    SiftDown(heap, i);
  }
}

std::uint32_t VictimIndex::Lowest(std::uint32_t max_movable) const {
  for (std::size_t w = 0; w < nonempty_.size(); ++w) {
    if (nonempty_[w] == 0) continue;
    const std::size_t movable =
        w * 64 + static_cast<std::size_t>(std::countr_zero(nonempty_[w]));
    if (movable > max_movable) return kNone;
    return BlockOf(buckets_[movable].front());
  }
  return kNone;
}

std::uint64_t VictimIndex::ResidentBytes() const {
  std::uint64_t bytes = slot_.capacity() * sizeof(Slot) +
                        nonempty_.capacity() * sizeof(std::uint64_t) +
                        buckets_.capacity() * sizeof(std::vector<Entry>);
  for (const std::vector<Entry>& heap : buckets_) {
    bytes += heap.capacity() * sizeof(Entry);
  }
  return bytes;
}

void VictimIndex::SiftUp(std::vector<Entry>& heap, std::uint32_t i) {
  const Entry e = heap[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (heap[parent] <= e) break;
    Put(heap, i, heap[parent]);
    i = parent;
  }
  Put(heap, i, e);
}

void VictimIndex::SiftDown(std::vector<Entry>& heap, std::uint32_t i) {
  const Entry e = heap[i];
  const std::uint32_t n = static_cast<std::uint32_t>(heap.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    if (heap[child] >= e) break;
    Put(heap, i, heap[child]);
    i = child;
  }
  Put(heap, i, e);
}

}  // namespace insider::ftl
