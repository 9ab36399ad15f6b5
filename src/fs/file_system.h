// InsiderFS: a small ext2-style filesystem used by the Table II experiments
// and the examples.
//
// Design points relevant to the reproduction:
//  * Write-through metadata batched per operation: each public call leaves
//    the on-disk state consistent *between* operations, so an SSD rollback
//    that lands mid-operation produces exactly the crash-like inconsistency
//    the paper repairs with fsck.
//  * Unlink issues TRIM for every freed block, which is how Class-C
//    (delete-and-rewrite) ransomware becomes visible to the FTL's
//    delayed-deletion machinery.
//  * 4-KB blocks matching the NAND page, 12 direct + single + double
//    indirect pointers (max file ~4 GB), flat 64-byte directory entries.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fs/block_device.h"
#include "fs/layout.h"

namespace insider::fs {

enum class FsStatus {
  kOk,
  kNotFound,
  kExists,
  kNoSpace,
  kNoInodes,
  kNotDir,
  kIsDir,
  kNotFile,
  kDirNotEmpty,
  kNameTooLong,
  kTooBig,
  kBadPath,
  kIoError,   ///< device refused (e.g., SSD latched read-only)
  kBadFs,
};

class FileSystem {
 public:
  /// Format the device. `inode_count` caps the number of files+dirs.
  static FsStatus Mkfs(BlockDevice& device, std::uint32_t inode_count);

  /// Mount an existing filesystem. Returns nullopt if no valid superblock.
  static std::optional<FileSystem> Mount(BlockDevice& device);

  FileSystem(FileSystem&&) = default;
  FileSystem& operator=(FileSystem&&) = default;

  // File operations ------------------------------------------------------

  FsStatus Mkdir(std::string_view path);
  FsStatus CreateFile(std::string_view path);
  FsStatus WriteFile(std::string_view path, std::uint64_t offset,
                     std::span<const std::byte> data);
  /// Reads up to out.size() bytes; *bytes_read reports the amount (short at
  /// EOF). Sparse holes read as zeros.
  FsStatus ReadFile(std::string_view path, std::uint64_t offset,
                    std::span<std::byte> out, std::uint64_t* bytes_read);
  FsStatus Unlink(std::string_view path);
  FsStatus Rmdir(std::string_view path);
  /// Shrink or grow (sparse) a file to `new_size` bytes.
  FsStatus Truncate(std::string_view path, std::uint64_t new_size);

  bool Exists(std::string_view path);
  std::optional<std::uint64_t> FileSize(std::string_view path);
  FsStatus ListDir(std::string_view path, std::vector<std::string>& names);

  /// Metadata write-back policy. Write-through (default) flushes the
  /// bitmap/superblock at the end of every operation, so the on-disk state
  /// is consistent between operations. Lazy mode emulates a real kernel's
  /// staggered write-back: data and interim inode updates reach the disk
  /// promptly while bitmap and superblock blocks trickle out a few at a
  /// time — so a crash (or an SSD-Insider rollback) lands on a mixed-epoch
  /// state with exactly the inconsistencies the paper's Table II reports.
  void SetLazyMetadata(bool lazy) { lazy_metadata_ = lazy; }
  bool LazyMetadata() const { return lazy_metadata_; }
  /// Flush all pending metadata (lazy mode's fsync).
  FsStatus Sync();

  const SuperBlock& Super() const { return sb_; }
  std::uint64_t FreeBlocks() const { return sb_.free_blocks; }
  std::uint32_t FreeInodes() const { return sb_.free_inodes; }

 private:
  explicit FileSystem(BlockDevice& device) : device_(&device) {}

  // Inode I/O.
  bool LoadInode(std::uint32_t ino, Inode& out);
  bool StoreInode(std::uint32_t ino, const Inode& inode);
  std::optional<std::uint32_t> AllocInode();
  void FreeInode(std::uint32_t ino);

  // Block allocation (in-memory bitmap, flushed per-op). Exact first-fit
  // over the bitmap, scanned 64 blocks per word from alloc_hint_.
  std::optional<std::uint32_t> AllocBlock();
  void FreeBlock(std::uint32_t block, bool trim);
  bool FlushMeta();  ///< write dirty bitmap blocks + superblock
  /// Policy-aware end-of-op flush: full in write-through mode, a staggered
  /// trickle (at most one bitmap block, periodically the superblock) in
  /// lazy mode.
  bool FlushMetaPerPolicy();
  bool FlushOneBitmapBlock();
  bool FlushSuperBlock();

  // File block mapping.
  /// Device block holding file block `index` of `inode`; 0 if unmapped and
  /// !allocate. Updates inode.block_count as it allocates.
  std::uint32_t MapBlock(Inode& inode, std::uint64_t index, bool allocate,
                         bool& io_error);
  void FreeInodeBlocks(Inode& inode, std::uint64_t keep_blocks);

  // Pointer-block cache: a kernel keeps indirect blocks in the page cache,
  // so appending to a file does NOT issue a device read before every
  // pointer update (which would look like overwriting to the in-SSD
  // detector). Reads are served from this tiny LRU; writes go through to
  // the device and refresh the cache.
  bool ReadPtrBlock(std::uint32_t block, std::span<std::byte> out);
  bool WritePtrBlock(std::uint32_t block, std::span<const std::byte> data);
  void InvalidatePtrBlock(std::uint32_t block);

  // Directories.
  struct Resolved {
    std::uint32_t parent = kInvalidInode;
    std::uint32_t ino = kInvalidInode;  ///< kInvalidInode if leaf missing
    std::string leaf;
  };
  std::optional<Resolved> Resolve(std::string_view path);
  std::optional<std::uint32_t> DirLookup(std::uint32_t dir_ino,
                                         std::string_view name);
  FsStatus DirAddEntry(std::uint32_t dir_ino, std::string_view name,
                       std::uint32_t ino);
  FsStatus DirRemoveEntry(std::uint32_t dir_ino, std::string_view name);
  bool DirIsEmpty(std::uint32_t dir_ino, bool& io_error);
  FsStatus ListEntries(std::uint32_t dir_ino,
                       std::vector<DirEntry>& entries);

  FsStatus CreateNode(std::string_view path, InodeMode mode);
  FsStatus RemoveNode(std::string_view path, InodeMode mode);

  BlockDevice* device_;
  SuperBlock sb_;
  /// The block bitmap in its on-disk format (layout.h), cached. Bits past
  /// total_blocks stay 0.
  std::vector<std::uint64_t> bitmap_;
  /// First-fit starts here: every data block below it is in use.
  std::uint64_t alloc_hint_ = 0;
  std::vector<std::uint8_t> inode_used_;   ///< one byte per inode (cached)
  std::vector<std::uint32_t> dirty_bitmap_blocks_;
  bool sb_dirty_ = false;
  bool lazy_metadata_ = false;
  std::uint32_t lazy_tick_ = 0;  ///< staggers lazy-mode flushes

  struct PtrCacheEntry {
    std::uint32_t block = 0;  ///< 0 = empty slot
    std::uint64_t age = 0;
    std::array<std::byte, kBlockSize> data{};
  };
  std::array<PtrCacheEntry, 4> ptr_cache_{};
  std::uint64_t ptr_cache_clock_ = 0;
};

}  // namespace insider::fs
