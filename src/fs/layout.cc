#include "fs/layout.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace insider::fs {

// Bitmap words and the integer fields are copied with memcpy, so the
// on-disk format is little-endian only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

namespace {

void Put32(std::span<std::byte> dest, std::size_t off, std::uint32_t v) {
  std::memcpy(dest.data() + off, &v, sizeof(v));
}
void Put64(std::span<std::byte> dest, std::size_t off, std::uint64_t v) {
  std::memcpy(dest.data() + off, &v, sizeof(v));
}
std::uint32_t Get32(std::span<const std::byte> src, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, src.data() + off, sizeof(v));
  return v;
}
std::uint64_t Get64(std::span<const std::byte> src, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, src.data() + off, sizeof(v));
  return v;
}

}  // namespace

void SuperBlock::SerializeTo(std::span<std::byte> block) const {
  assert(block.size() == kBlockSize);
  std::memset(block.data(), 0, block.size());
  Put32(block, 0, magic);
  Put64(block, 8, total_blocks);
  Put32(block, 16, inode_count);
  Put32(block, 20, bitmap_start);
  Put32(block, 24, bitmap_blocks);
  Put32(block, 28, inode_start);
  Put32(block, 32, inode_blocks);
  Put64(block, 40, data_start);
  Put64(block, 48, free_blocks);
  Put32(block, 56, free_inodes);
}

bool SuperBlock::DeserializeFrom(std::span<const std::byte> block,
                                 SuperBlock& out) {
  if (block.size() != kBlockSize) return false;
  out.magic = Get32(block, 0);
  if (out.magic != kFsMagic) return false;
  out.total_blocks = Get64(block, 8);
  out.inode_count = Get32(block, 16);
  out.bitmap_start = Get32(block, 20);
  out.bitmap_blocks = Get32(block, 24);
  out.inode_start = Get32(block, 28);
  out.inode_blocks = Get32(block, 32);
  out.data_start = Get64(block, 40);
  out.free_blocks = Get64(block, 48);
  out.free_inodes = Get32(block, 56);
  return true;
}

void Inode::SerializeTo(std::span<std::byte> dest) const {
  assert(dest.size() == kInodeSize);
  std::memset(dest.data(), 0, dest.size());
  Put32(dest, 0, static_cast<std::uint32_t>(mode));
  Put32(dest, 4, links);
  Put64(dest, 8, size);
  Put32(dest, 16, block_count);
  for (std::uint32_t i = 0; i < kDirectPointers; ++i) {
    Put32(dest, 24 + i * 4, direct[i]);
  }
  Put32(dest, 24 + kDirectPointers * 4, indirect);
  Put32(dest, 24 + kDirectPointers * 4 + 4, double_indirect);
}

Inode Inode::DeserializeFrom(std::span<const std::byte> src) {
  assert(src.size() == kInodeSize);
  Inode n;
  n.mode = static_cast<InodeMode>(Get32(src, 0));
  n.links = Get32(src, 4);
  n.size = Get64(src, 8);
  n.block_count = Get32(src, 16);
  for (std::uint32_t i = 0; i < kDirectPointers; ++i) {
    n.direct[i] = Get32(src, 24 + i * 4);
  }
  n.indirect = Get32(src, 24 + kDirectPointers * 4);
  n.double_indirect = Get32(src, 24 + kDirectPointers * 4 + 4);
  return n;
}

void DirEntry::SerializeTo(std::span<std::byte> dest) const {
  assert(dest.size() == kDirEntrySize);
  std::memset(dest.data(), 0, dest.size());
  Put32(dest, 0, inode);
  std::memcpy(dest.data() + 4, name, sizeof(name));
}

DirEntry DirEntry::DeserializeFrom(std::span<const std::byte> src) {
  assert(src.size() == kDirEntrySize);
  DirEntry e;
  e.inode = Get32(src, 0);
  std::memcpy(e.name, src.data() + 4, sizeof(e.name));
  e.name[kMaxNameLen] = '\0';
  return e;
}

std::optional<SuperBlock> ComputeLayout(std::uint64_t total_blocks,
                                        std::uint32_t inode_count) {
  // Block pointers are 32-bit and 0 means "none".
  if (inode_count < 1 || total_blocks > (std::uint64_t{1} << 32)) {
    return std::nullopt;
  }
  SuperBlock sb;
  sb.total_blocks = total_blocks;
  sb.inode_count = inode_count;
  sb.bitmap_start = 1;
  sb.bitmap_blocks = static_cast<std::uint32_t>(
      (total_blocks + kBlocksPerBitmapBlock - 1) / kBlocksPerBitmapBlock);
  sb.inode_start = sb.bitmap_start + sb.bitmap_blocks;
  sb.inode_blocks = static_cast<std::uint32_t>(
      (std::uint64_t{inode_count} + kInodesPerBlock - 1) / kInodesPerBlock);
  sb.data_start = std::uint64_t{sb.inode_start} + sb.inode_blocks;
  if (sb.data_start >= total_blocks) return std::nullopt;
  sb.free_blocks = total_blocks - sb.data_start;
  sb.free_inodes = inode_count;  // root consumes one during mkfs
  return sb;
}

bool LayoutValid(const SuperBlock& sb) {
  auto want = ComputeLayout(sb.total_blocks, sb.inode_count);
  return want && sb.bitmap_start == want->bitmap_start &&
         sb.bitmap_blocks == want->bitmap_blocks &&
         sb.inode_start == want->inode_start &&
         sb.inode_blocks == want->inode_blocks &&
         sb.data_start == want->data_start;
}

BitmapSlice BitmapBlockSlice(std::uint64_t total_blocks, std::uint32_t bb) {
  BitmapSlice s;
  s.first = bb * kBitmapWordsPerBlock;
  std::uint64_t words = BitmapWords(total_blocks);
  if (s.first < words) {
    s.count = static_cast<std::size_t>(
        std::min(kBitmapWordsPerBlock, words - s.first));
  }
  return s;
}

void LoadBitmapWords(std::span<const std::byte> block,
                     std::span<std::uint64_t> words) {
  assert(block.size() == kBlockSize && words.size() <= kBitmapWordsPerBlock);
  std::memcpy(words.data(), block.data(), words.size_bytes());
}

void StoreBitmapWords(std::span<const std::uint64_t> words,
                      std::span<std::byte> block) {
  assert(block.size() == kBlockSize && words.size() <= kBitmapWordsPerBlock);
  std::memcpy(block.data(), words.data(), words.size_bytes());
}

}  // namespace insider::fs
