// Bump-pointer arena for hot-path simulator allocations.
//
// The paper-scale device materializes NAND state lazily (blocks, page
// records); those allocations are small, bursty, and
// freed only wholesale when the owner dies. A bump allocator over chained
// slabs turns each of them into a pointer increment, and its stats hooks let
// the footprint tests and BENCH_* artifacts report exactly how much resident
// memory a device shape costs.
//
// Not thread-safe by design: each owner (a Chip) keeps its own arena, so
// there is no shared allocator bottleneck to lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace insider::common {

class ArenaAllocator {
 public:
  struct Stats {
    std::uint64_t slab_count = 0;      ///< slabs currently owned
    std::uint64_t slab_bytes = 0;      ///< total bytes reserved in slabs
    std::uint64_t allocated_bytes = 0; ///< bytes handed out (incl. padding)
    std::uint64_t allocation_count = 0;
  };

  /// `slab_bytes` is the granularity of growth; oversized requests get a
  /// dedicated slab of exactly their size.
  explicit ArenaAllocator(std::size_t slab_bytes = 64 * 1024)
      : slab_bytes_(slab_bytes == 0 ? 1 : slab_bytes) {}

  ArenaAllocator(ArenaAllocator&&) noexcept = default;
  ArenaAllocator& operator=(ArenaAllocator&&) noexcept = default;
  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  /// Aligned raw allocation; never returns nullptr (grows a slab instead).
  void* Allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    if (align == 0) align = 1;
    // Align the absolute address, not the slab offset: operator new[] only
    // guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__, so over-aligned requests
    // need address arithmetic (NewSlab oversizes by `align` to compensate).
    std::size_t offset = slabs_.empty()
                             ? current_size_  // force a first slab
                             : AlignedOffset(cursor_, align);
    if (slabs_.empty() || offset + bytes > current_size_) {
      NewSlab(bytes, align);
      offset = AlignedOffset(0, align);
    }
    void* p = slabs_.back().get() + offset;
    stats_.allocated_bytes += (offset - cursor_) + bytes;  // padding + payload
    cursor_ = offset + bytes;
    ++stats_.allocation_count;
    return p;
  }

  /// Placement-construct a T in the arena. The arena does NOT run
  /// destructors: the owner must call them explicitly (or only store
  /// trivially destructible payloads).
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  const Stats& GetStats() const { return stats_; }

  /// Rewind to empty, keeping the largest slab for reuse (resets do not
  /// churn the heap).
  void Reset() {
    if (slabs_.size() > 1) {
      slabs_.erase(slabs_.begin(), slabs_.end() - 1);
      stats_.slab_bytes = current_size_;
      stats_.slab_count = 1;
    }
    cursor_ = 0;
    stats_.allocated_bytes = 0;
    stats_.allocation_count = 0;
  }

 private:
  /// Smallest offset >= `offset` whose *address* in the current slab is
  /// `align`-aligned.
  std::size_t AlignedOffset(std::size_t offset, std::size_t align) const {
    auto base = reinterpret_cast<std::uintptr_t>(slabs_.back().get());
    std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1;
    std::uintptr_t aligned = (base + offset + mask) & ~mask;
    return static_cast<std::size_t>(aligned - base);
  }

  void NewSlab(std::size_t bytes, std::size_t align) {
    std::size_t size = slab_bytes_;
    if (bytes + align > size) size = bytes + align;
    slabs_.push_back(std::make_unique<std::byte[]>(size));
    current_size_ = size;
    cursor_ = 0;
    ++stats_.slab_count;
    stats_.slab_bytes += size;
  }

  std::size_t slab_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t current_size_ = 0;  ///< capacity of slabs_.back()
  std::size_t cursor_ = 0;        ///< next free offset in slabs_.back()
  Stats stats_;
};

}  // namespace insider::common
