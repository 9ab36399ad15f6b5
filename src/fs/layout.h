// On-disk layout of InsiderFS, the ext2-style filesystem used for the
// paper's Table II consistency experiments.
//
//   block 0                     superblock
//   blocks [bitmap_start, ...)  block bitmap, 1 bit per device block
//   blocks [inode_start, ...)   inode table, 32 inodes of 128 B per block
//   blocks [data_start, ...)    file and directory data
//
// The structures deliberately mirror the metadata ext4's fsck repairs in the
// paper's Table II: a free-block count and free-inode count in the
// superblock, a per-inode block count, and a free-space bitmap.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "fs/block_device.h"

namespace insider::fs {

inline constexpr std::uint32_t kFsMagic = 0x55DDF5AA;
inline constexpr std::uint32_t kInodeSize = 128;
inline constexpr std::uint32_t kInodesPerBlock = kBlockSize / kInodeSize;
inline constexpr std::uint32_t kDirectPointers = 12;
/// 4-byte block pointers in the indirect blocks.
inline constexpr std::uint32_t kPointersPerBlock = kBlockSize / 4;
inline constexpr std::uint32_t kDirEntrySize = 64;
inline constexpr std::uint32_t kDirEntriesPerBlock = kBlockSize / kDirEntrySize;
inline constexpr std::uint32_t kMaxNameLen = kDirEntrySize - 5;  // NUL + inode
inline constexpr std::uint32_t kInvalidInode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kRootInode = 0;

enum class InodeMode : std::uint32_t {
  kFree = 0,
  kFile = 1,
  kDir = 2,
};

struct SuperBlock {
  std::uint32_t magic = kFsMagic;
  std::uint64_t total_blocks = 0;
  std::uint32_t inode_count = 0;
  std::uint32_t bitmap_start = 0;
  std::uint32_t bitmap_blocks = 0;
  std::uint32_t inode_start = 0;
  std::uint32_t inode_blocks = 0;
  std::uint64_t data_start = 0;
  std::uint64_t free_blocks = 0;   ///< Table II: "wrong free-block count"
  std::uint32_t free_inodes = 0;

  void SerializeTo(std::span<std::byte> block) const;
  static bool DeserializeFrom(std::span<const std::byte> block,
                              SuperBlock& out);
};

struct Inode {
  InodeMode mode = InodeMode::kFree;
  std::uint32_t links = 0;
  std::uint64_t size = 0;
  /// Allocated blocks including indirect pointer blocks (ext2's i_blocks;
  /// Table II: "wrong inode-block count").
  std::uint32_t block_count = 0;
  std::array<std::uint32_t, kDirectPointers> direct{};
  std::uint32_t indirect = 0;         ///< single-indirect pointer block
  std::uint32_t double_indirect = 0;  ///< double-indirect pointer block

  void SerializeTo(std::span<std::byte> dest) const;  ///< dest: kInodeSize
  static Inode DeserializeFrom(std::span<const std::byte> src);

  /// Blocks a file of this inode's size addresses (data blocks only).
  static std::uint64_t DataBlocksForSize(std::uint64_t size_bytes) {
    return (size_bytes + kBlockSize - 1) / kBlockSize;
  }
  /// Largest supported file, bytes (12 direct + 1 K indirect + 1 M double).
  static std::uint64_t MaxFileSize() {
    return (static_cast<std::uint64_t>(kDirectPointers) + kPointersPerBlock +
            static_cast<std::uint64_t>(kPointersPerBlock) *
                kPointersPerBlock) *
           kBlockSize;
  }
};

struct DirEntry {
  std::uint32_t inode = kInvalidInode;
  char name[kMaxNameLen + 1] = {};  ///< NUL-terminated

  bool InUse() const { return inode != kInvalidInode; }
  void SerializeTo(std::span<std::byte> dest) const;  ///< dest: kDirEntrySize
  static DirEntry DeserializeFrom(std::span<const std::byte> src);
};

/// Geometry derived from a device size: where each region lives. nullopt if
/// the filesystem does not fit: no inodes, no data block left after the
/// metadata, or more blocks than a 32-bit block pointer can address.
std::optional<SuperBlock> ComputeLayout(std::uint64_t total_blocks,
                                        std::uint32_t inode_count);

/// True if `sb`'s region fields are the ones ComputeLayout derives from its
/// total_blocks and inode_count. Mount and fsck refuse any other superblock:
/// it is outside input, and every region walk trusts these fields.
bool LayoutValid(const SuperBlock& sb);

// Block bitmap -------------------------------------------------------------
//
// The on-disk bitmap and the in-memory one share a format: a bitset of
// 64-bit words, block b at bit b % 64 of word b / 64. On disk each word is
// stored little-endian, so byte i of a bitmap block holds blocks 8i..8i+7,
// lowest bit first. Bits at or past total_blocks are no blocks: Mount drops
// them, the filesystem writes them as 0, and fsck neither counts nor
// repairs them.

inline constexpr std::uint64_t kBlocksPerBitmapBlock = kBlockSize * 8;
inline constexpr std::uint64_t kBitmapWordsPerBlock = kBlockSize / 8;

/// Words in the bitset of a `total_blocks`-block filesystem.
inline std::uint64_t BitmapWords(std::uint64_t total_blocks) {
  return (total_blocks + 63) / 64;
}

/// Word `w` of the bitset in which exactly the blocks below `n` are set.
/// BitsBelow(total_blocks, w) is the mask of word w's valid bits: all ones
/// except in a partial last word.
inline std::uint64_t BitsBelow(std::uint64_t n, std::uint64_t w) {
  std::uint64_t first = w * 64;
  if (n >= first + 64) return ~std::uint64_t{0};
  if (n <= first) return 0;
  return (std::uint64_t{1} << (n - first)) - 1;
}

/// The words of the bitset that bitmap block `bb` stores: [first, first +
/// count). The last bitmap block may hold fewer than kBitmapWordsPerBlock.
struct BitmapSlice {
  std::uint64_t first = 0;
  std::size_t count = 0;
};
BitmapSlice BitmapBlockSlice(std::uint64_t total_blocks, std::uint32_t bb);

/// Copy `words.size()` words from the front of a bitmap block.
void LoadBitmapWords(std::span<const std::byte> block,
                     std::span<std::uint64_t> words);
/// Copy `words` to the front of a bitmap block; the rest is left as is.
void StoreBitmapWords(std::span<const std::uint64_t> words,
                      std::span<std::byte> block);

}  // namespace insider::fs
