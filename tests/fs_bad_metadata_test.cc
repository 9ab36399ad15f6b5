// On-disk metadata is outside input: a rollback, a crash or an attacker can
// leave any bytes in the superblock. Mkfs, Mount, fsck and the allocators
// must refuse or absorb bad values instead of crashing or wrapping.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "fs/file_system.h"
#include "fs/fsck.h"
#include "fs/layout.h"

namespace insider::fs {
namespace {

using BlockBuf = std::array<std::byte, kBlockSize>;

class FsBadMetadataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(FileSystem::Mkfs(dev_, 64), FsStatus::kOk);
    sb_ = ReadSuper();
  }

  SuperBlock ReadSuper() {
    BlockBuf buf{};
    SuperBlock sb;
    EXPECT_TRUE(dev_.ReadBlock(0, buf));
    EXPECT_TRUE(SuperBlock::DeserializeFrom(buf, sb));
    return sb;
  }
  void WriteSuper(const SuperBlock& sb) {
    BlockBuf buf{};
    sb.SerializeTo(buf);
    ASSERT_TRUE(dev_.WriteBlock(0, buf));
  }

  MemBlockDevice dev_{2048};
  SuperBlock sb_;
};

TEST_F(FsBadMetadataTest, ZeroInodeCountIsRejected) {
  sb_.inode_count = 0;
  WriteSuper(sb_);
  EXPECT_FALSE(FileSystem::Mount(dev_).has_value());
  EXPECT_FALSE(Fsck(dev_, false).valid_superblock);
  EXPECT_FALSE(Fsck(dev_, true).valid_superblock);
}

TEST_F(FsBadMetadataTest, RegionsThatDisagreeWithTheLayoutAreRejected) {
  SuperBlock moved = sb_;
  moved.data_start -= 1;  // the data region would overlap the inode table
  WriteSuper(moved);
  EXPECT_FALSE(FileSystem::Mount(dev_).has_value());
  EXPECT_FALSE(Fsck(dev_, false).valid_superblock);

  moved = sb_;
  moved.bitmap_blocks += 1;
  WriteSuper(moved);
  EXPECT_FALSE(FileSystem::Mount(dev_).has_value());
  EXPECT_FALSE(Fsck(dev_, false).valid_superblock);

  WriteSuper(sb_);
  EXPECT_TRUE(FileSystem::Mount(dev_).has_value());
  EXPECT_TRUE(Fsck(dev_, false).Clean());
}

TEST(FsBadLayoutTest, MkfsRejectsADeviceTooSmallForItsInodeTable) {
  // 1024 inodes need 32 inode-table blocks; the device has 16.
  MemBlockDevice dev(16);
  EXPECT_EQ(FileSystem::Mkfs(dev, 1024), FsStatus::kBadFs);
  // Nothing was written.
  BlockBuf buf{};
  for (std::uint64_t b = 0; b < dev.BlockCount(); ++b) {
    ASSERT_TRUE(dev.ReadBlock(b, buf));
    for (std::byte x : buf) ASSERT_EQ(x, std::byte{0}) << "block " << b;
  }
  EXPECT_FALSE(FileSystem::Mount(dev).has_value());
  // The same device takes a filesystem that fits.
  EXPECT_EQ(FileSystem::Mkfs(dev, 64), FsStatus::kOk);
  EXPECT_TRUE(FileSystem::Mount(dev).has_value());
}

TEST_F(FsBadMetadataTest, UndercountedFreeBlocksSaturateAtZero) {
  sb_.free_blocks = 1;
  WriteSuper(sb_);
  {
    auto fs = FileSystem::Mount(dev_);
    ASSERT_TRUE(fs.has_value());
    ASSERT_EQ(fs->CreateFile("/f"), FsStatus::kOk);
    std::vector<std::byte> data(3 * kBlockSize, std::byte{7});
    // The bitmap decides allocation, not the stale count.
    ASSERT_EQ(fs->WriteFile("/f", 0, data), FsStatus::kOk);
    EXPECT_EQ(fs->FreeBlocks(), 0u);
    std::vector<std::byte> out(data.size());
    std::uint64_t n = 0;
    ASSERT_EQ(fs->ReadFile("/f", 0, out, &n), FsStatus::kOk);
    EXPECT_EQ(out, data);
  }
  EXPECT_EQ(ReadSuper().free_blocks, 0u);
  FsckReport r = Fsck(dev_, true);
  EXPECT_EQ(r.wrong_free_block_count, 1u);
  EXPECT_TRUE(Fsck(dev_, false).Clean());
  // Root directory block + 3 data blocks.
  EXPECT_EQ(ReadSuper().free_blocks,
            dev_.BlockCount() - sb_.data_start - 4);
}

TEST_F(FsBadMetadataTest, UndercountedFreeInodesSaturateAtZero) {
  sb_.free_inodes = 0;
  WriteSuper(sb_);
  {
    auto fs = FileSystem::Mount(dev_);
    ASSERT_TRUE(fs.has_value());
    ASSERT_EQ(fs->CreateFile("/a"), FsStatus::kOk);
    ASSERT_EQ(fs->Mkdir("/d"), FsStatus::kOk);
    EXPECT_EQ(fs->FreeInodes(), 0u);
  }
  EXPECT_EQ(ReadSuper().free_inodes, 0u);
  FsckReport r = Fsck(dev_, true);
  EXPECT_EQ(r.wrong_free_inode_count, 1u);
  EXPECT_TRUE(Fsck(dev_, false).Clean());
  // Root, /a and /d.
  EXPECT_EQ(ReadSuper().free_inodes, 64u - 3u);
}

TEST_F(FsBadMetadataTest, UnlinkSkipsPointersOutsideTheDataRegion) {
  {
    auto fs = FileSystem::Mount(dev_);
    ASSERT_TRUE(fs.has_value());
    ASSERT_EQ(fs->CreateFile("/f"), FsStatus::kOk);
    std::vector<std::byte> data(kBlockSize, std::byte{9});
    ASSERT_EQ(fs->WriteFile("/f", 0, data), FsStatus::kOk);
  }
  // Inode 1 is /f. Point three more of its direct pointers at a bitmap
  // block, past the end of the device, and at a free data block.
  BlockBuf buf{};
  ASSERT_TRUE(dev_.ReadBlock(sb_.inode_start, buf));
  auto slot = std::span<std::byte>(buf).subspan(kInodeSize, kInodeSize);
  Inode n = Inode::DeserializeFrom(slot);
  ASSERT_EQ(n.mode, InodeMode::kFile);
  n.direct[1] = sb_.bitmap_start;
  n.direct[2] = static_cast<std::uint32_t>(dev_.BlockCount() + 5);
  n.direct[3] = static_cast<std::uint32_t>(dev_.BlockCount() - 1);
  n.SerializeTo(slot);
  ASSERT_TRUE(dev_.WriteBlock(sb_.inode_start, buf));

  auto fs = FileSystem::Mount(dev_);
  ASSERT_TRUE(fs.has_value());
  std::uint64_t free_before = fs->FreeBlocks();
  ASSERT_EQ(fs->Unlink("/f"), FsStatus::kOk);
  // Only the file's one real data block was freed.
  EXPECT_EQ(fs->FreeBlocks(), free_before + 1);
  BlockBuf bitmap_after{};
  ASSERT_TRUE(dev_.ReadBlock(sb_.bitmap_start, bitmap_after));
  for (std::uint64_t b = 0; b < sb_.data_start; ++b) {
    auto mask = std::byte{static_cast<unsigned char>(1u << (b % 8))};
    EXPECT_NE(bitmap_after[b / 8] & mask, std::byte{0}) << "block " << b;
  }
  FsckReport r = Fsck(dev_, false);
  EXPECT_TRUE(r.Clean()) << r.ToString();
}

}  // namespace
}  // namespace insider::fs
