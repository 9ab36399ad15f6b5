#include "fs/fsck.h"

#include <array>
#include <bit>
#include <cstring>
#include <deque>
#include <sstream>
#include <vector>

#include "fs/layout.h"

namespace insider::fs {

namespace {

using BlockBuf = std::array<std::byte, kBlockSize>;

struct Ctx {
  BlockDevice* device;
  SuperBlock sb;
  bool repair;
  FsckReport report;

  std::vector<Inode> inodes;
  std::vector<std::uint8_t> inode_dirty;
  std::vector<std::uint8_t> reachable;
  /// Blocks in use, as a bitmap in the on-disk format (layout.h): the
  /// metadata region plus every block the tree walk claimed.
  std::vector<std::uint64_t> claimed;

  /// Claim a block for the tree walk. Returns false (and zeroes the caller's
  /// pointer) if the pointer is out of range or the block is already owned.
  bool Claim(std::uint32_t block) {
    if (block < sb.data_start || block >= sb.total_blocks) {
      ++report.bad_pointers;
      return false;
    }
    std::uint64_t bit = std::uint64_t{1} << (block % 64);
    if (claimed[block / 64] & bit) {
      ++report.double_claimed_blocks;
      return false;
    }
    claimed[block / 64] |= bit;
    return true;
  }
};

/// Walk one inode's pointer tree: validate and claim every referenced block
/// (data + pointer blocks), zeroing bad pointers in repair mode, and append
/// the inode's valid *data* blocks in file order to `data_blocks`.
void WalkInode(Ctx& ctx, std::uint32_t ino,
               std::vector<std::uint32_t>& data_blocks) {
  Inode& n = ctx.inodes[ino];
  std::uint32_t actual = 0;
  bool changed = false;
  BlockBuf buf{};

  auto claim_data = [&](std::uint32_t& ptr) {
    if (ptr == 0) return;
    if (!ctx.Claim(ptr)) {
      ptr = 0;
      changed = true;
      return;
    }
    ++actual;
    data_blocks.push_back(ptr);
  };

  for (std::uint32_t i = 0; i < kDirectPointers; ++i) claim_data(n.direct[i]);

  auto walk_indirect = [&](std::uint32_t& ind_ptr) {
    if (ind_ptr == 0) return;
    if (!ctx.Claim(ind_ptr)) {
      ind_ptr = 0;
      changed = true;
      return;
    }
    ++actual;
    if (!ctx.device->ReadBlock(ind_ptr, buf)) return;
    bool dirty = false;
    for (std::uint32_t i = 0; i < kPointersPerBlock; ++i) {
      std::uint32_t ptr;
      std::memcpy(&ptr, buf.data() + i * 4, 4);
      std::uint32_t before = ptr;
      claim_data(ptr);
      if (ptr != before) {
        std::memcpy(buf.data() + i * 4, &ptr, 4);
        dirty = true;
      }
    }
    if (dirty && ctx.repair) ctx.device->WriteBlock(ind_ptr, buf);
  };

  walk_indirect(n.indirect);

  if (n.double_indirect != 0) {
    if (!ctx.Claim(n.double_indirect)) {
      n.double_indirect = 0;
      changed = true;
    } else {
      ++actual;
      BlockBuf outer{};
      if (ctx.device->ReadBlock(n.double_indirect, outer)) {
        bool outer_dirty = false;
        for (std::uint32_t o = 0; o < kPointersPerBlock; ++o) {
          std::uint32_t l1;
          std::memcpy(&l1, outer.data() + o * 4, 4);
          std::uint32_t before = l1;
          walk_indirect(l1);
          if (l1 != before) {
            std::memcpy(outer.data() + o * 4, &l1, 4);
            outer_dirty = true;
          }
        }
        if (outer_dirty && ctx.repair) {
          ctx.device->WriteBlock(n.double_indirect, outer);
        }
      }
    }
  }

  if (n.block_count != actual) {
    ++ctx.report.wrong_inode_block_count;
    if (ctx.repair) {
      n.block_count = actual;
      changed = true;
    }
  }
  if (changed && ctx.repair) ctx.inode_dirty[ino] = 1;
}

}  // namespace

std::string FsckReport::ToString() const {
  std::ostringstream os;
  os << "fsck: superblock=" << (valid_superblock ? "ok" : "BAD")
     << " free-block-count=" << wrong_free_block_count
     << " free-inode-count=" << wrong_free_inode_count
     << " inode-block-count=" << wrong_inode_block_count
     << " bitmap=" << bitmap_mismatches
     << " dangling=" << dangling_dir_entries << " orphans=" << orphan_inodes
     << " bad-ptrs=" << bad_pointers
     << " double-claims=" << double_claimed_blocks;
  return os.str();
}

FsckReport Fsck(BlockDevice& device, bool repair) {
  Ctx ctx{&device, {}, repair, {}, {}, {}, {}, {}};
  BlockBuf buf{};
  if (!device.ReadBlock(0, buf) ||
      !SuperBlock::DeserializeFrom(buf, ctx.sb) ||
      ctx.sb.total_blocks != device.BlockCount() || !LayoutValid(ctx.sb)) {
    return ctx.report;  // valid_superblock stays false
  }
  ctx.report.valid_superblock = true;
  const SuperBlock& sb = ctx.sb;

  // Load the inode table.
  ctx.inodes.resize(sb.inode_count);
  ctx.inode_dirty.assign(sb.inode_count, 0);
  ctx.reachable.assign(sb.inode_count, 0);
  ctx.claimed.resize(BitmapWords(sb.total_blocks));
  for (std::uint64_t w = 0; w * 64 < sb.data_start; ++w) {
    ctx.claimed[w] = BitsBelow(sb.data_start, w);
  }
  for (std::uint32_t b = 0; b < sb.inode_blocks; ++b) {
    if (!device.ReadBlock(sb.inode_start + b, buf)) return ctx.report;
    for (std::uint32_t i = 0; i < kInodesPerBlock; ++i) {
      std::uint32_t ino = b * kInodesPerBlock + i;
      if (ino >= sb.inode_count) break;
      ctx.inodes[ino] = Inode::DeserializeFrom(
          std::span<const std::byte>(buf).subspan(i * kInodeSize, kInodeSize));
    }
  }

  // BFS the directory tree from the root.
  std::deque<std::uint32_t> queue;
  if (ctx.inodes[kRootInode].mode == InodeMode::kDir) {
    ctx.reachable[kRootInode] = 1;
    queue.push_back(kRootInode);
  }
  while (!queue.empty()) {
    std::uint32_t dir_ino = queue.front();
    queue.pop_front();
    std::vector<std::uint32_t> dir_blocks;
    WalkInode(ctx, dir_ino, dir_blocks);
    for (std::uint32_t block : dir_blocks) {
      if (!device.ReadBlock(block, buf)) continue;
      bool dirty = false;
      for (std::uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
        auto slot = std::span<std::byte>(buf).subspan(i * kDirEntrySize,
                                                      kDirEntrySize);
        DirEntry e = DirEntry::DeserializeFrom(slot);
        if (!e.InUse()) continue;
        bool dangling =
            e.inode >= sb.inode_count ||
            ctx.inodes[e.inode].mode == InodeMode::kFree ||
            ctx.reachable[e.inode];  // second link: not supported, drop it
        if (dangling) {
          ++ctx.report.dangling_dir_entries;
          if (repair) {
            DirEntry unused;
            unused.SerializeTo(slot);
            dirty = true;
          }
          continue;
        }
        ctx.reachable[e.inode] = 1;
        if (ctx.inodes[e.inode].mode == InodeMode::kDir) {
          queue.push_back(e.inode);
        } else {
          std::vector<std::uint32_t> ignored;
          WalkInode(ctx, e.inode, ignored);
        }
      }
      if (dirty) device.WriteBlock(block, buf);
    }
  }

  // Orphans: allocated in the table but unreachable from the root.
  std::uint32_t used_inodes = 0;
  for (std::uint32_t ino = 0; ino < sb.inode_count; ++ino) {
    if (ctx.inodes[ino].mode == InodeMode::kFree) continue;
    if (!ctx.reachable[ino]) {
      ++ctx.report.orphan_inodes;
      if (repair) {
        ctx.inodes[ino] = Inode{};
        ctx.inode_dirty[ino] = 1;
      }
      continue;
    }
    ++used_inodes;
  }

  // Bitmap: reachable claims + metadata vs the on-disk map.
  std::uint64_t used_blocks = 0;
  for (std::uint64_t word : ctx.claimed) {
    used_blocks += static_cast<unsigned>(std::popcount(word));
  }
  std::array<std::uint64_t, kBitmapWordsPerBlock> have{};
  for (std::uint32_t bb = 0; bb < sb.bitmap_blocks; ++bb) {
    if (!device.ReadBlock(sb.bitmap_start + bb, buf)) continue;
    BitmapSlice slice = BitmapBlockSlice(sb.total_blocks, bb);
    auto words = std::span(have).first(slice.count);
    LoadBitmapWords(buf, words);
    bool dirty = false;
    for (std::size_t i = 0; i < words.size(); ++i) {
      // Bits past total_blocks are neither counted nor repaired.
      std::uint64_t w = slice.first + i;
      std::uint64_t diff =
          (ctx.claimed[w] ^ words[i]) & BitsBelow(sb.total_blocks, w);
      if (diff == 0) continue;
      ctx.report.bitmap_mismatches +=
          static_cast<unsigned>(std::popcount(diff));
      if (repair) {
        words[i] ^= diff;
        dirty = true;
      }
    }
    if (dirty) {
      StoreBitmapWords(words, buf);
      device.WriteBlock(sb.bitmap_start + bb, buf);
    }
  }

  // Superblock counters.
  std::uint64_t want_free_blocks = sb.total_blocks - used_blocks;
  std::uint32_t want_free_inodes = sb.inode_count - used_inodes;
  bool sb_dirty = false;
  if (sb.free_blocks != want_free_blocks) {
    ctx.report.wrong_free_block_count = 1;
    if (repair) {
      ctx.sb.free_blocks = want_free_blocks;
      sb_dirty = true;
    }
  }
  if (sb.free_inodes != want_free_inodes) {
    ctx.report.wrong_free_inode_count = 1;
    if (repair) {
      ctx.sb.free_inodes = want_free_inodes;
      sb_dirty = true;
    }
  }

  if (repair) {
    // Flush repaired inodes block by block.
    for (std::uint32_t b = 0; b < sb.inode_blocks; ++b) {
      bool dirty = false;
      for (std::uint32_t i = 0; i < kInodesPerBlock; ++i) {
        std::uint32_t ino = b * kInodesPerBlock + i;
        if (ino < sb.inode_count && ctx.inode_dirty[ino]) dirty = true;
      }
      if (!dirty) continue;
      if (!device.ReadBlock(sb.inode_start + b, buf)) continue;
      for (std::uint32_t i = 0; i < kInodesPerBlock; ++i) {
        std::uint32_t ino = b * kInodesPerBlock + i;
        if (ino >= sb.inode_count) break;
        ctx.inodes[ino].SerializeTo(
            std::span<std::byte>(buf).subspan(i * kInodeSize, kInodeSize));
      }
      device.WriteBlock(sb.inode_start + b, buf);
    }
    if (sb_dirty) {
      buf.fill(std::byte{0});
      ctx.sb.SerializeTo(buf);
      device.WriteBlock(0, buf);
    }
  }

  return ctx.report;
}

}  // namespace insider::fs
