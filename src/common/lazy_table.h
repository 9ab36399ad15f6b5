// Chunked lazily-materialized table for paper-scale FTL metadata.
//
// A 512 GB device has ~134 M physical pages; dense `std::vector` mapping
// tables (L2P, P2L, per-page state) would cost gigabytes before the host
// writes a single block. LazyTable keeps a chunk directory instead: every
// entry reads as `default_value` until its chunk is materialized by the
// first non-default write, so resident memory tracks the *touched* address
// space, not the device capacity.
//
// Reads are value-returning (`Get`) and never allocate — invariant-auditor
// sweeps over all TotalPages stay O(materialized) in memory. Writes go
// through `Set`/`Mut`; `Set` of the default value onto a pristine chunk is a
// no-op, which keeps table resets free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace insider::common {

template <typename T>
class LazyTable {
 public:
  /// Entries per chunk. The FTL's tables hold 4-byte page ids (16 KiB per
  /// materialized chunk) and 1-byte page states (4 KiB); the chunk
  /// directory for a 134 M-entry table is ~256 KiB.
  static constexpr std::size_t kChunkEntries = 4096;

  LazyTable() = default;
  LazyTable(std::size_t size, T default_value) { Assign(size, default_value); }

  /// Reset to `size` entries all reading as `default_value`, dropping every
  /// materialized chunk. O(size / kChunkEntries), not O(size).
  void Assign(std::size_t size, T default_value) {
    size_ = size;
    default_ = default_value;
    chunks_.clear();
    chunks_.resize((size + kChunkEntries - 1) / kChunkEntries);
  }

  std::size_t Size() const { return size_; }

  T Get(std::size_t i) const {
    const Chunk* c = chunks_[i / kChunkEntries].get();
    return c == nullptr ? default_ : c->entries[i % kChunkEntries];
  }

  void Set(std::size_t i, T value) {
    std::unique_ptr<Chunk>& slot = chunks_[i / kChunkEntries];
    if (slot == nullptr) {
      if (value == default_) return;  // pristine chunk already reads as this
      Materialize(slot);
    }
    slot->entries[i % kChunkEntries] = value;
  }

  /// Mutable reference; materializes the chunk even if only read through.
  T& Mut(std::size_t i) {
    std::unique_ptr<Chunk>& slot = chunks_[i / kChunkEntries];
    if (slot == nullptr) Materialize(slot);
    return slot->entries[i % kChunkEntries];
  }

  /// Deep copy for checkpoint snapshots: materialized chunks are duplicated,
  /// pristine chunks stay pristine, so a snapshot of a sparse table is as
  /// sparse as the original.
  LazyTable Clone() const {
    LazyTable copy;
    copy.size_ = size_;
    copy.default_ = default_;
    copy.chunks_.resize(chunks_.size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] != nullptr) {
        copy.chunks_[c] = std::make_unique<Chunk>(*chunks_[c]);
      }
    }
    return copy;
  }

  /// Restore this table from a snapshot taken with Clone().
  void CloneFrom(const LazyTable& other) { *this = other.Clone(); }

  std::uint64_t MaterializedChunks() const {
    std::uint64_t n = 0;
    for (const auto& c : chunks_) n += (c != nullptr) ? 1u : 0u;
    return n;
  }

  /// Resident heap estimate: chunk directory + materialized chunks.
  std::uint64_t ResidentBytes() const {
    return chunks_.capacity() * sizeof(chunks_[0]) +
           MaterializedChunks() * sizeof(Chunk);
  }

  /// True when every entry of chunk `i / kChunkEntries` still reads as the
  /// default — lets whole-table sweeps skip pristine regions wholesale.
  bool ChunkPristine(std::size_t i) const {
    return chunks_[i / kChunkEntries] == nullptr;
  }

 private:
  struct Chunk {
    T entries[kChunkEntries];
  };

  void Materialize(std::unique_ptr<Chunk>& slot) {
    slot = std::make_unique<Chunk>();
    for (std::size_t k = 0; k < kChunkEntries; ++k) {
      slot->entries[k] = default_;
    }
  }

  std::size_t size_ = 0;
  T default_{};
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace insider::common
