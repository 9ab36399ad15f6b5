#include "fs/file_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace insider::fs {

namespace {

std::vector<std::string_view> SplitPath(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i > start) parts.push_back(path.substr(start, i - start));
  }
  return parts;
}

using BlockBuf = std::array<std::byte, kBlockSize>;

}  // namespace

// ---------------------------------------------------------------------------
// Mkfs / Mount

FsStatus FileSystem::Mkfs(BlockDevice& device, std::uint32_t inode_count) {
  std::uint64_t total = device.BlockCount();
  if (total < 8) return FsStatus::kBadFs;
  auto layout = ComputeLayout(total, inode_count);
  if (!layout) return FsStatus::kBadFs;
  SuperBlock& sb = *layout;

  BlockBuf buf{};
  // Bitmap: metadata region used, the rest free.
  std::array<std::uint64_t, kBitmapWordsPerBlock> words{};
  for (std::uint32_t b = 0; b < sb.bitmap_blocks; ++b) {
    BitmapSlice slice = BitmapBlockSlice(total, b);
    std::size_t n = 0;  // words holding a block below data_start
    while (n < slice.count && (slice.first + n) * 64 < sb.data_start) {
      words[n] = BitsBelow(sb.data_start, slice.first + n);
      ++n;
    }
    buf.fill(std::byte{0});
    StoreBitmapWords(std::span(words).first(n), buf);
    if (!device.WriteBlock(sb.bitmap_start + b, buf)) return FsStatus::kIoError;
  }
  // Inode table: all free except the root directory.
  for (std::uint32_t b = 0; b < sb.inode_blocks; ++b) {
    buf.fill(std::byte{0});
    if (b == 0) {
      Inode root;
      root.mode = InodeMode::kDir;
      root.links = 1;
      root.SerializeTo(std::span<std::byte>(buf).subspan(0, kInodeSize));
    }
    if (!device.WriteBlock(sb.inode_start + b, buf)) return FsStatus::kIoError;
  }
  sb.free_inodes = inode_count - 1;
  buf.fill(std::byte{0});
  sb.SerializeTo(buf);
  if (!device.WriteBlock(0, buf)) return FsStatus::kIoError;
  return FsStatus::kOk;
}

std::optional<FileSystem> FileSystem::Mount(BlockDevice& device) {
  BlockBuf buf{};
  if (!device.ReadBlock(0, buf)) return std::nullopt;
  SuperBlock sb;
  if (!SuperBlock::DeserializeFrom(buf, sb)) return std::nullopt;
  if (sb.total_blocks != device.BlockCount() || !LayoutValid(sb)) {
    return std::nullopt;
  }

  FileSystem fs(device);
  fs.sb_ = sb;
  fs.alloc_hint_ = sb.data_start;
  fs.bitmap_.resize(BitmapWords(sb.total_blocks));
  for (std::uint32_t b = 0; b < sb.bitmap_blocks; ++b) {
    if (!device.ReadBlock(sb.bitmap_start + b, buf)) return std::nullopt;
    BitmapSlice slice = BitmapBlockSlice(sb.total_blocks, b);
    LoadBitmapWords(buf, std::span(fs.bitmap_).subspan(slice.first,
                                                       slice.count));
  }
  fs.bitmap_.back() &= BitsBelow(sb.total_blocks, fs.bitmap_.size() - 1);
  fs.inode_used_.assign(sb.inode_count, 0);
  for (std::uint32_t b = 0; b < sb.inode_blocks; ++b) {
    if (!device.ReadBlock(sb.inode_start + b, buf)) return std::nullopt;
    for (std::uint32_t i = 0; i < kInodesPerBlock; ++i) {
      std::uint32_t ino = b * kInodesPerBlock + i;
      if (ino >= sb.inode_count) break;
      Inode n = Inode::DeserializeFrom(
          std::span<const std::byte>(buf).subspan(i * kInodeSize, kInodeSize));
      fs.inode_used_[ino] = (n.mode != InodeMode::kFree) ? 1 : 0;
    }
  }
  return fs;
}

// ---------------------------------------------------------------------------
// Inode I/O

bool FileSystem::LoadInode(std::uint32_t ino, Inode& out) {
  if (ino >= sb_.inode_count) return false;
  BlockBuf buf{};
  std::uint32_t block = sb_.inode_start + ino / kInodesPerBlock;
  if (!device_->ReadBlock(block, buf)) return false;
  out = Inode::DeserializeFrom(std::span<const std::byte>(buf).subspan(
      (ino % kInodesPerBlock) * kInodeSize, kInodeSize));
  return true;
}

bool FileSystem::StoreInode(std::uint32_t ino, const Inode& inode) {
  if (ino >= sb_.inode_count) return false;
  BlockBuf buf{};
  std::uint32_t block = sb_.inode_start + ino / kInodesPerBlock;
  if (!device_->ReadBlock(block, buf)) return false;
  inode.SerializeTo(std::span<std::byte>(buf).subspan(
      (ino % kInodesPerBlock) * kInodeSize, kInodeSize));
  return device_->WriteBlock(block, buf);
}

std::optional<std::uint32_t> FileSystem::AllocInode() {
  for (std::uint32_t i = 0; i < sb_.inode_count; ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = 1;
      // The count comes from disk and may be stale; fsck repairs it.
      if (sb_.free_inodes > 0) --sb_.free_inodes;
      sb_dirty_ = true;
      return i;
    }
  }
  return std::nullopt;
}

void FileSystem::FreeInode(std::uint32_t ino) {
  assert(ino < sb_.inode_count && inode_used_[ino]);
  inode_used_[ino] = 0;
  ++sb_.free_inodes;
  sb_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Block allocation

std::optional<std::uint32_t> FileSystem::AllocBlock() {
  // First fit. Every data block below alloc_hint_ is in use.
  for (std::uint64_t w = alloc_hint_ / 64; w < bitmap_.size(); ++w) {
    std::uint64_t avail = ~bitmap_[w] & BitsBelow(sb_.total_blocks, w) &
                          ~BitsBelow(alloc_hint_, w);
    if (avail == 0) continue;
    std::uint64_t b = w * 64 + static_cast<unsigned>(std::countr_zero(avail));
    bitmap_[w] |= std::uint64_t{1} << (b % 64);
    alloc_hint_ = b + 1;
    // The count comes from disk and may be stale; fsck repairs it.
    if (sb_.free_blocks > 0) --sb_.free_blocks;
    sb_dirty_ = true;
    dirty_bitmap_blocks_.push_back(
        static_cast<std::uint32_t>(b / kBlocksPerBitmapBlock));
    return static_cast<std::uint32_t>(b);
  }
  alloc_hint_ = sb_.total_blocks;
  return std::nullopt;
}

void FileSystem::FreeBlock(std::uint32_t block, bool trim) {
  // Block pointers come from disk and may be corrupt until fsck runs. One
  // outside the data region must not free, or trim, metadata; one to a free
  // block must not count that block as free twice.
  if (block < sb_.data_start || block >= sb_.total_blocks) return;
  std::uint64_t bit = std::uint64_t{1} << (block % 64);
  if (!(bitmap_[block / 64] & bit)) return;
  bitmap_[block / 64] &= ~bit;
  alloc_hint_ = std::min<std::uint64_t>(alloc_hint_, block);
  ++sb_.free_blocks;
  sb_dirty_ = true;
  dirty_bitmap_blocks_.push_back(
      static_cast<std::uint32_t>(block / kBlocksPerBitmapBlock));
  InvalidatePtrBlock(block);
  if (trim) device_->TrimBlock(block);
}

bool FileSystem::ReadPtrBlock(std::uint32_t block, std::span<std::byte> out) {
  assert(out.size() == kBlockSize);
  for (PtrCacheEntry& e : ptr_cache_) {
    if (e.block == block) {
      e.age = ++ptr_cache_clock_;
      std::memcpy(out.data(), e.data.data(), kBlockSize);
      return true;
    }
  }
  if (!device_->ReadBlock(block, out)) return false;
  PtrCacheEntry* victim = &ptr_cache_[0];
  for (PtrCacheEntry& e : ptr_cache_) {
    if (e.block == 0) { victim = &e; break; }
    if (e.age < victim->age) victim = &e;
  }
  victim->block = block;
  victim->age = ++ptr_cache_clock_;
  std::memcpy(victim->data.data(), out.data(), kBlockSize);
  return true;
}

bool FileSystem::WritePtrBlock(std::uint32_t block,
                               std::span<const std::byte> data) {
  assert(data.size() == kBlockSize);
  if (!device_->WriteBlock(block, data)) return false;
  for (PtrCacheEntry& e : ptr_cache_) {
    if (e.block == block) {
      e.age = ++ptr_cache_clock_;
      std::memcpy(e.data.data(), data.data(), kBlockSize);
      return true;
    }
  }
  PtrCacheEntry* victim = &ptr_cache_[0];
  for (PtrCacheEntry& e : ptr_cache_) {
    if (e.block == 0) { victim = &e; break; }
    if (e.age < victim->age) victim = &e;
  }
  victim->block = block;
  victim->age = ++ptr_cache_clock_;
  std::memcpy(victim->data.data(), data.data(), kBlockSize);
  return true;
}

void FileSystem::InvalidatePtrBlock(std::uint32_t block) {
  for (PtrCacheEntry& e : ptr_cache_) {
    if (e.block == block) {
      e.block = 0;
      e.age = 0;
    }
  }
}

bool FileSystem::FlushOneBitmapBlock() {
  std::sort(dirty_bitmap_blocks_.begin(), dirty_bitmap_blocks_.end());
  dirty_bitmap_blocks_.erase(
      std::unique(dirty_bitmap_blocks_.begin(), dirty_bitmap_blocks_.end()),
      dirty_bitmap_blocks_.end());
  if (dirty_bitmap_blocks_.empty()) return true;
  std::uint32_t bb = dirty_bitmap_blocks_.back();
  dirty_bitmap_blocks_.pop_back();
  BlockBuf buf{};
  BitmapSlice slice = BitmapBlockSlice(sb_.total_blocks, bb);
  StoreBitmapWords(std::span(bitmap_).subspan(slice.first, slice.count), buf);
  return device_->WriteBlock(sb_.bitmap_start + bb, buf);
}

bool FileSystem::FlushSuperBlock() {
  if (!sb_dirty_) return true;
  BlockBuf buf{};
  sb_.SerializeTo(buf);
  if (!device_->WriteBlock(0, buf)) return false;
  sb_dirty_ = false;
  return true;
}

bool FileSystem::FlushMeta() {
  bool ok = true;
  while (!dirty_bitmap_blocks_.empty()) ok &= FlushOneBitmapBlock();
  ok &= FlushSuperBlock();
  return ok;
}

bool FileSystem::FlushMetaPerPolicy() {
  if (!lazy_metadata_) return FlushMeta();
  // Kernel-style trickle write-back: one bitmap block every other tick, the
  // superblock every fourth -- data and metadata epochs interleave on disk.
  ++lazy_tick_;
  bool ok = true;
  if (lazy_tick_ % 2 == 0) ok &= FlushOneBitmapBlock();
  if (lazy_tick_ % 4 == 0) ok &= FlushSuperBlock();
  return ok;
}

FsStatus FileSystem::Sync() {
  return FlushMeta() ? FsStatus::kOk : FsStatus::kIoError;
}

// ---------------------------------------------------------------------------
// File block mapping

std::uint32_t FileSystem::MapBlock(Inode& inode, std::uint64_t index,
                                   bool allocate, bool& io_error) {
  io_error = false;
  auto alloc_one = [&]() -> std::uint32_t {
    auto b = AllocBlock();
    if (!b) return 0;
    ++inode.block_count;
    return *b;
  };
  auto load_ptrs = [&](std::uint32_t block, std::array<std::byte, kBlockSize>&
                                                 buf) -> bool {
    if (!ReadPtrBlock(block, buf)) {
      io_error = true;
      return false;
    }
    return true;
  };

  if (index < kDirectPointers) {
    if (inode.direct[index] == 0 && allocate) {
      inode.direct[index] = alloc_one();
    }
    return inode.direct[index];
  }
  index -= kDirectPointers;

  BlockBuf buf{};
  if (index < kPointersPerBlock) {
    if (inode.indirect == 0) {
      if (!allocate) return 0;
      inode.indirect = alloc_one();
      if (inode.indirect == 0) return 0;
      buf.fill(std::byte{0});
      if (!WritePtrBlock(inode.indirect, buf)) {
        io_error = true;
        return 0;
      }
    }
    if (!load_ptrs(inode.indirect, buf)) return 0;
    std::uint32_t ptr;
    std::memcpy(&ptr, buf.data() + index * 4, 4);
    if (ptr == 0 && allocate) {
      ptr = alloc_one();
      if (ptr == 0) return 0;
      std::memcpy(buf.data() + index * 4, &ptr, 4);
      if (!WritePtrBlock(inode.indirect, buf)) {
        io_error = true;
        return 0;
      }
    }
    return ptr;
  }
  index -= kPointersPerBlock;

  std::uint64_t max_double =
      static_cast<std::uint64_t>(kPointersPerBlock) * kPointersPerBlock;
  if (index >= max_double) return 0;  // beyond max file size
  std::uint64_t outer = index / kPointersPerBlock;
  std::uint64_t inner = index % kPointersPerBlock;

  if (inode.double_indirect == 0) {
    if (!allocate) return 0;
    inode.double_indirect = alloc_one();
    if (inode.double_indirect == 0) return 0;
    buf.fill(std::byte{0});
    if (!WritePtrBlock(inode.double_indirect, buf)) {
      io_error = true;
      return 0;
    }
  }
  if (!load_ptrs(inode.double_indirect, buf)) return 0;
  std::uint32_t l1;
  std::memcpy(&l1, buf.data() + outer * 4, 4);
  if (l1 == 0) {
    if (!allocate) return 0;
    l1 = alloc_one();
    if (l1 == 0) return 0;
    std::memcpy(buf.data() + outer * 4, &l1, 4);
    if (!WritePtrBlock(inode.double_indirect, buf)) {
      io_error = true;
      return 0;
    }
    buf.fill(std::byte{0});
    if (!WritePtrBlock(l1, buf)) {
      io_error = true;
      return 0;
    }
  }
  if (!load_ptrs(l1, buf)) return 0;
  std::uint32_t ptr;
  std::memcpy(&ptr, buf.data() + inner * 4, 4);
  if (ptr == 0 && allocate) {
    ptr = alloc_one();
    if (ptr == 0) return 0;
    std::memcpy(buf.data() + inner * 4, &ptr, 4);
    if (!WritePtrBlock(l1, buf)) {
      io_error = true;
      return 0;
    }
  }
  return ptr;
}

void FileSystem::FreeInodeBlocks(Inode& inode, std::uint64_t keep_blocks) {
  // Free data blocks with index >= keep_blocks, then any pointer blocks that
  // become empty. Truncate-to-zero (keep_blocks == 0) frees everything.
  BlockBuf buf{};

  for (std::uint32_t i = 0; i < kDirectPointers; ++i) {
    if (i >= keep_blocks && inode.direct[i] != 0) {
      FreeBlock(inode.direct[i], /*trim=*/true);
      inode.direct[i] = 0;
      --inode.block_count;
    }
  }

  if (inode.indirect != 0) {
    std::uint64_t base = kDirectPointers;
    bool any_kept = false;
    if (ReadPtrBlock(inode.indirect, buf)) {
      bool dirty = false;
      for (std::uint32_t i = 0; i < kPointersPerBlock; ++i) {
        std::uint32_t ptr;
        std::memcpy(&ptr, buf.data() + i * 4, 4);
        if (ptr == 0) continue;
        if (base + i >= keep_blocks) {
          FreeBlock(ptr, true);
          --inode.block_count;
          ptr = 0;
          std::memcpy(buf.data() + i * 4, &ptr, 4);
          dirty = true;
        } else {
          any_kept = true;
        }
      }
      if (dirty && any_kept) WritePtrBlock(inode.indirect, buf);
    }
    if (!any_kept) {
      FreeBlock(inode.indirect, true);
      inode.indirect = 0;
      --inode.block_count;
    }
  }

  if (inode.double_indirect != 0) {
    std::uint64_t base = kDirectPointers + kPointersPerBlock;
    bool any_l1_kept = false;
    BlockBuf outer{};
    if (ReadPtrBlock(inode.double_indirect, outer)) {
      bool outer_dirty = false;
      for (std::uint32_t o = 0; o < kPointersPerBlock; ++o) {
        std::uint32_t l1;
        std::memcpy(&l1, outer.data() + o * 4, 4);
        if (l1 == 0) continue;
        std::uint64_t l1_base =
            base + static_cast<std::uint64_t>(o) * kPointersPerBlock;
        bool any_kept = false;
        if (ReadPtrBlock(l1, buf)) {
          bool dirty = false;
          for (std::uint32_t i = 0; i < kPointersPerBlock; ++i) {
            std::uint32_t ptr;
            std::memcpy(&ptr, buf.data() + i * 4, 4);
            if (ptr == 0) continue;
            if (l1_base + i >= keep_blocks) {
              FreeBlock(ptr, true);
              --inode.block_count;
              ptr = 0;
              std::memcpy(buf.data() + i * 4, &ptr, 4);
              dirty = true;
            } else {
              any_kept = true;
            }
          }
          if (dirty && any_kept) WritePtrBlock(l1, buf);
        }
        if (!any_kept) {
          FreeBlock(l1, true);
          --inode.block_count;
          l1 = 0;
          std::memcpy(outer.data() + o * 4, &l1, 4);
          outer_dirty = true;
        } else {
          any_l1_kept = true;
        }
      }
      if (outer_dirty && any_l1_kept) {
        WritePtrBlock(inode.double_indirect, outer);
      }
    }
    if (!any_l1_kept) {
      FreeBlock(inode.double_indirect, true);
      inode.double_indirect = 0;
      --inode.block_count;
    }
  }
}

// ---------------------------------------------------------------------------
// Directories

FsStatus FileSystem::ListEntries(std::uint32_t dir_ino,
                                 std::vector<DirEntry>& entries) {
  Inode dir;
  if (!LoadInode(dir_ino, dir)) return FsStatus::kIoError;
  if (dir.mode != InodeMode::kDir) return FsStatus::kNotDir;
  entries.clear();
  std::uint64_t blocks = Inode::DataBlocksForSize(dir.size);
  BlockBuf buf{};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    bool io_error = false;
    std::uint32_t block = MapBlock(dir, b, false, io_error);
    if (io_error) return FsStatus::kIoError;
    if (block == 0) continue;
    if (!device_->ReadBlock(block, buf)) return FsStatus::kIoError;
    for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
      entries.push_back(DirEntry::DeserializeFrom(
          std::span<const std::byte>(buf).subspan(i * kDirEntrySize,
                                                  kDirEntrySize)));
    }
  }
  return FsStatus::kOk;
}

std::optional<std::uint32_t> FileSystem::DirLookup(std::uint32_t dir_ino,
                                                   std::string_view name) {
  std::vector<DirEntry> entries;
  if (ListEntries(dir_ino, entries) != FsStatus::kOk) return std::nullopt;
  for (const DirEntry& e : entries) {
    if (e.InUse() && name == e.name) return e.inode;
  }
  return std::nullopt;
}

FsStatus FileSystem::DirAddEntry(std::uint32_t dir_ino, std::string_view name,
                                 std::uint32_t ino) {
  if (name.size() > kMaxNameLen) return FsStatus::kNameTooLong;
  Inode dir;
  if (!LoadInode(dir_ino, dir)) return FsStatus::kIoError;
  if (dir.mode != InodeMode::kDir) return FsStatus::kNotDir;

  DirEntry entry;
  entry.inode = ino;
  std::memcpy(entry.name, name.data(), name.size());
  entry.name[name.size()] = '\0';

  std::uint64_t blocks = Inode::DataBlocksForSize(dir.size);
  BlockBuf buf{};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    bool io_error = false;
    std::uint32_t block = MapBlock(dir, b, false, io_error);
    if (io_error) return FsStatus::kIoError;
    if (block == 0) continue;
    if (!device_->ReadBlock(block, buf)) return FsStatus::kIoError;
    for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
      DirEntry e = DirEntry::DeserializeFrom(std::span<const std::byte>(buf)
                                                 .subspan(i * kDirEntrySize,
                                                          kDirEntrySize));
      if (!e.InUse()) {
        entry.SerializeTo(std::span<std::byte>(buf).subspan(i * kDirEntrySize,
                                                            kDirEntrySize));
        if (!device_->WriteBlock(block, buf)) return FsStatus::kIoError;
        return FsStatus::kOk;
      }
    }
  }
  // No slot: grow the directory by one block.
  bool io_error = false;
  std::uint32_t block = MapBlock(dir, blocks, true, io_error);
  if (io_error) return FsStatus::kIoError;
  if (block == 0) return FsStatus::kNoSpace;
  buf.fill(std::byte{0});
  // Fresh blocks start with every entry unused (inode = kInvalidInode).
  for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
    DirEntry unused;
    unused.SerializeTo(
        std::span<std::byte>(buf).subspan(i * kDirEntrySize, kDirEntrySize));
  }
  entry.SerializeTo(std::span<std::byte>(buf).subspan(0, kDirEntrySize));
  if (!device_->WriteBlock(block, buf)) return FsStatus::kIoError;
  dir.size += kBlockSize;
  if (!StoreInode(dir_ino, dir)) return FsStatus::kIoError;
  return FsStatus::kOk;
}

FsStatus FileSystem::DirRemoveEntry(std::uint32_t dir_ino,
                                    std::string_view name) {
  Inode dir;
  if (!LoadInode(dir_ino, dir)) return FsStatus::kIoError;
  if (dir.mode != InodeMode::kDir) return FsStatus::kNotDir;
  std::uint64_t blocks = Inode::DataBlocksForSize(dir.size);
  BlockBuf buf{};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    bool io_error = false;
    std::uint32_t block = MapBlock(dir, b, false, io_error);
    if (io_error) return FsStatus::kIoError;
    if (block == 0) continue;
    if (!device_->ReadBlock(block, buf)) return FsStatus::kIoError;
    for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
      DirEntry e = DirEntry::DeserializeFrom(std::span<const std::byte>(buf)
                                                 .subspan(i * kDirEntrySize,
                                                          kDirEntrySize));
      if (e.InUse() && name == e.name) {
        DirEntry unused;
        unused.SerializeTo(std::span<std::byte>(buf).subspan(i * kDirEntrySize,
                                                             kDirEntrySize));
        if (!device_->WriteBlock(block, buf)) return FsStatus::kIoError;
        return FsStatus::kOk;
      }
    }
  }
  return FsStatus::kNotFound;
}

bool FileSystem::DirIsEmpty(std::uint32_t dir_ino, bool& io_error) {
  io_error = false;
  std::vector<DirEntry> entries;
  FsStatus st = ListEntries(dir_ino, entries);
  if (st != FsStatus::kOk) {
    io_error = true;
    return false;
  }
  for (const DirEntry& e : entries) {
    if (e.InUse()) return false;
  }
  return true;
}

std::optional<FileSystem::Resolved> FileSystem::Resolve(
    std::string_view path) {
  std::vector<std::string_view> parts = SplitPath(path);
  Resolved r;
  if (parts.empty()) {  // the root itself
    r.parent = kInvalidInode;
    r.ino = kRootInode;
    return r;
  }
  std::uint32_t dir = kRootInode;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    auto next = DirLookup(dir, parts[i]);
    if (!next) return std::nullopt;
    Inode n;
    if (!LoadInode(*next, n) || n.mode != InodeMode::kDir) return std::nullopt;
    dir = *next;
  }
  r.parent = dir;
  r.leaf = std::string(parts.back());
  auto leaf_ino = DirLookup(dir, parts.back());
  r.ino = leaf_ino.value_or(kInvalidInode);
  return r;
}

// ---------------------------------------------------------------------------
// Public operations

FsStatus FileSystem::CreateNode(std::string_view path, InodeMode mode) {
  auto r = Resolve(path);
  if (!r) return FsStatus::kNotFound;
  if (r->parent == kInvalidInode) return FsStatus::kExists;  // the root
  if (r->ino != kInvalidInode) return FsStatus::kExists;
  if (r->leaf.size() > kMaxNameLen) return FsStatus::kNameTooLong;
  auto ino = AllocInode();
  if (!ino) {
    FlushMetaPerPolicy();
    return FsStatus::kNoInodes;
  }
  Inode n;
  n.mode = mode;
  n.links = 1;
  if (!StoreInode(*ino, n)) return FsStatus::kIoError;
  FsStatus st = DirAddEntry(r->parent, r->leaf, *ino);
  if (st != FsStatus::kOk) {
    FreeInode(*ino);
    Inode freed;
    StoreInode(*ino, freed);
    FlushMetaPerPolicy();
    return st;
  }
  if (!FlushMetaPerPolicy()) return FsStatus::kIoError;
  return FsStatus::kOk;
}

FsStatus FileSystem::CreateFile(std::string_view path) {
  return CreateNode(path, InodeMode::kFile);
}

FsStatus FileSystem::Mkdir(std::string_view path) {
  return CreateNode(path, InodeMode::kDir);
}

FsStatus FileSystem::WriteFile(std::string_view path, std::uint64_t offset,
                               std::span<const std::byte> data) {
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return FsStatus::kNotFound;
  Inode n;
  if (!LoadInode(r->ino, n)) return FsStatus::kIoError;
  if (n.mode != InodeMode::kFile) return FsStatus::kIsDir;
  if (offset + data.size() > Inode::MaxFileSize()) return FsStatus::kTooBig;

  BlockBuf buf{};
  std::size_t written = 0;
  while (written < data.size()) {
    std::uint64_t pos = offset + written;
    std::uint64_t file_block = pos / kBlockSize;
    std::uint32_t in_block = static_cast<std::uint32_t>(pos % kBlockSize);
    std::uint32_t chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kBlockSize - in_block, data.size() - written));
    bool io_error = false;
    std::uint32_t block = MapBlock(n, file_block, true, io_error);
    if (io_error) return FsStatus::kIoError;
    if (block == 0) {
      FlushMeta();
      StoreInode(r->ino, n);
      return FsStatus::kNoSpace;
    }
    if (chunk < kBlockSize) {
      if (!device_->ReadBlock(block, buf)) return FsStatus::kIoError;
    }
    std::memcpy(buf.data() + in_block, data.data() + written, chunk);
    if (!device_->WriteBlock(block, buf)) return FsStatus::kIoError;
    written += chunk;
    n.size = std::max(n.size, offset + written);
    if (lazy_metadata_ && (written / kBlockSize) % 256 == 0) {
      // Interim write-back mid-operation, as a kernel flushing a large
      // dirty file would; the on-disk inode/bitmap epochs diverge.
      StoreInode(r->ino, n);
      FlushMetaPerPolicy();
    }
  }
  if (!StoreInode(r->ino, n)) return FsStatus::kIoError;
  if (!FlushMetaPerPolicy()) return FsStatus::kIoError;
  return FsStatus::kOk;
}

FsStatus FileSystem::ReadFile(std::string_view path, std::uint64_t offset,
                              std::span<std::byte> out,
                              std::uint64_t* bytes_read) {
  if (bytes_read) *bytes_read = 0;
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return FsStatus::kNotFound;
  Inode n;
  if (!LoadInode(r->ino, n)) return FsStatus::kIoError;
  if (n.mode != InodeMode::kFile) return FsStatus::kIsDir;
  if (offset >= n.size) return FsStatus::kOk;  // EOF

  std::uint64_t to_read = std::min<std::uint64_t>(out.size(), n.size - offset);
  BlockBuf buf{};
  std::uint64_t done = 0;
  while (done < to_read) {
    std::uint64_t pos = offset + done;
    std::uint64_t file_block = pos / kBlockSize;
    std::uint32_t in_block = static_cast<std::uint32_t>(pos % kBlockSize);
    std::uint32_t chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kBlockSize - in_block, to_read - done));
    bool io_error = false;
    std::uint32_t block = MapBlock(n, file_block, false, io_error);
    if (io_error) return FsStatus::kIoError;
    if (block == 0) {
      std::memset(out.data() + done, 0, chunk);  // sparse hole
    } else {
      if (!device_->ReadBlock(block, buf)) return FsStatus::kIoError;
      std::memcpy(out.data() + done, buf.data() + in_block, chunk);
    }
    done += chunk;
  }
  if (bytes_read) *bytes_read = done;
  return FsStatus::kOk;
}

FsStatus FileSystem::Truncate(std::string_view path, std::uint64_t new_size) {
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return FsStatus::kNotFound;
  Inode n;
  if (!LoadInode(r->ino, n)) return FsStatus::kIoError;
  if (n.mode != InodeMode::kFile) return FsStatus::kIsDir;
  if (new_size > Inode::MaxFileSize()) return FsStatus::kTooBig;
  if (new_size < n.size) {
    FreeInodeBlocks(n, Inode::DataBlocksForSize(new_size));
  }
  n.size = new_size;
  if (!StoreInode(r->ino, n)) return FsStatus::kIoError;
  if (!FlushMetaPerPolicy()) return FsStatus::kIoError;
  return FsStatus::kOk;
}

FsStatus FileSystem::RemoveNode(std::string_view path, InodeMode mode) {
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return FsStatus::kNotFound;
  if (r->parent == kInvalidInode) return FsStatus::kBadPath;  // the root
  Inode n;
  if (!LoadInode(r->ino, n)) return FsStatus::kIoError;
  if (n.mode != mode) {
    return mode == InodeMode::kFile ? FsStatus::kIsDir : FsStatus::kNotDir;
  }
  if (mode == InodeMode::kDir) {
    bool io_error = false;
    if (!DirIsEmpty(r->ino, io_error)) {
      return io_error ? FsStatus::kIoError : FsStatus::kDirNotEmpty;
    }
  }
  FsStatus st = DirRemoveEntry(r->parent, r->leaf);
  if (st != FsStatus::kOk) return st;
  FreeInodeBlocks(n, 0);
  FreeInode(r->ino);
  Inode freed;
  if (!StoreInode(r->ino, freed)) return FsStatus::kIoError;
  if (!FlushMetaPerPolicy()) return FsStatus::kIoError;
  return FsStatus::kOk;
}

FsStatus FileSystem::Unlink(std::string_view path) {
  return RemoveNode(path, InodeMode::kFile);
}

FsStatus FileSystem::Rmdir(std::string_view path) {
  return RemoveNode(path, InodeMode::kDir);
}

bool FileSystem::Exists(std::string_view path) {
  auto r = Resolve(path);
  return r && r->ino != kInvalidInode;
}

std::optional<std::uint64_t> FileSystem::FileSize(std::string_view path) {
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return std::nullopt;
  Inode n;
  if (!LoadInode(r->ino, n)) return std::nullopt;
  return n.size;
}

FsStatus FileSystem::ListDir(std::string_view path,
                             std::vector<std::string>& names) {
  names.clear();
  auto r = Resolve(path);
  if (!r || r->ino == kInvalidInode) return FsStatus::kNotFound;
  std::vector<DirEntry> entries;
  FsStatus st = ListEntries(r->ino, entries);
  if (st != FsStatus::kOk) return st;
  for (const DirEntry& e : entries) {
    if (e.InUse()) names.emplace_back(e.name);
  }
  return FsStatus::kOk;
}

}  // namespace insider::fs
