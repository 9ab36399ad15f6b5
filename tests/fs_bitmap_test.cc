// Word-level block bitmap paths (Mkfs, Mount, first-fit AllocBlock, fsck)
// checked against a per-bit reference on a filesystem whose block count is
// not a multiple of 64 and whose bitmap spans three bitmap blocks, the last
// one partial.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fs/file_system.h"
#include "fs/fsck.h"
#include "fs/layout.h"

namespace insider::fs {
namespace {

using BlockBuf = std::array<std::byte, kBlockSize>;

constexpr std::uint64_t kBlocks = 2 * kBlocksPerBitmapBlock + 37;

/// A device that stores only the blocks written to it, so a 256 MB
/// filesystem costs a few MB of RAM.
class SparseBlockDevice final : public BlockDevice {
 public:
  explicit SparseBlockDevice(std::uint64_t blocks) : blocks_(blocks) {}

  std::uint64_t BlockCount() const override { return blocks_; }

  bool ReadBlock(std::uint64_t lba, std::span<std::byte> out) override {
    if (lba >= blocks_ || out.size() != kBlockSize) return false;
    auto it = data_.find(lba);
    if (it == data_.end()) {
      std::fill(out.begin(), out.end(), std::byte{0});
    } else {
      std::copy(it->second.begin(), it->second.end(), out.begin());
    }
    return true;
  }

  bool WriteBlock(std::uint64_t lba,
                  std::span<const std::byte> data) override {
    if (lba >= blocks_ || data.size() != kBlockSize) return false;
    std::copy(data.begin(), data.end(), data_[lba].begin());
    return true;
  }

  bool TrimBlock(std::uint64_t lba) override {
    if (lba >= blocks_) return false;
    data_.erase(lba);
    return true;
  }

 private:
  std::map<std::uint64_t, BlockBuf> data_;
  std::uint64_t blocks_;
};

// The per-bit reference: bit `i` of bitmap block `bb` is block
// bb * 32768 + i, stored in byte i / 8 at bit i % 8.
bool RefBit(const BlockBuf& buf, std::uint64_t i) {
  return (std::to_integer<unsigned>(buf[i / 8]) >> (i % 8)) & 1u;
}
void RefSetBit(BlockBuf& buf, std::uint64_t i, bool on) {
  auto mask = std::byte{static_cast<unsigned char>(1u << (i % 8))};
  buf[i / 8] = on ? (buf[i / 8] | mask) : (buf[i / 8] & ~mask);
}

class FsBitmapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(FileSystem::Mkfs(dev_, 64), FsStatus::kOk);
    BlockBuf buf{};
    ASSERT_TRUE(dev_.ReadBlock(0, buf));
    ASSERT_TRUE(SuperBlock::DeserializeFrom(buf, sb_));
    ASSERT_EQ(sb_.bitmap_blocks, 3u);
  }

  std::vector<BlockBuf> ReadBitmap() {
    std::vector<BlockBuf> blocks(sb_.bitmap_blocks);
    for (std::uint32_t bb = 0; bb < sb_.bitmap_blocks; ++bb) {
      EXPECT_TRUE(dev_.ReadBlock(sb_.bitmap_start + bb, blocks[bb]));
    }
    return blocks;
  }
  void WriteBitmap(const std::vector<BlockBuf>& blocks) {
    for (std::uint32_t bb = 0; bb < sb_.bitmap_blocks; ++bb) {
      ASSERT_TRUE(dev_.WriteBlock(sb_.bitmap_start + bb, blocks[bb]));
    }
  }

  /// Per-bit decode of the on-disk bitmap; bits past the end are ignored.
  std::vector<bool> RefDecode() {
    std::vector<BlockBuf> blocks = ReadBitmap();
    std::vector<bool> used(kBlocks);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      used[b] = RefBit(blocks[b / kBlocksPerBitmapBlock],
                       b % kBlocksPerBitmapBlock);
    }
    return used;
  }

  /// Asserts that going from `before` to the on-disk bitmap set exactly the
  /// first `k` free data blocks of `before` and cleared nothing; returns k.
  std::uint64_t ExpectFirstFit(const std::vector<bool>& before) {
    std::vector<bool> after = RefDecode();
    std::uint64_t k = 0;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_FALSE(before[b] && !after[b]) << "block " << b << " cleared";
      if (!before[b] && after[b]) ++k;
    }
    std::uint64_t taken = 0;
    for (std::uint64_t b = sb_.data_start; b < kBlocks && taken < k; ++b) {
      if (before[b]) continue;
      EXPECT_TRUE(after[b]) << "first fit skipped block " << b;
      ++taken;
    }
    return k;
  }

  SparseBlockDevice dev_{kBlocks};
  SuperBlock sb_;
};

TEST_F(FsBitmapTest, MkfsWritesTheReferenceBitmap) {
  std::vector<BlockBuf> blocks = ReadBitmap();
  for (std::uint32_t bb = 0; bb < sb_.bitmap_blocks; ++bb) {
    BlockBuf want{};
    for (std::uint64_t i = 0; i < kBlocksPerBitmapBlock; ++i) {
      std::uint64_t b = bb * kBlocksPerBitmapBlock + i;
      if (b >= kBlocks) break;
      RefSetBit(want, i, b < sb_.data_start);
    }
    EXPECT_EQ(blocks[bb], want) << "bitmap block " << bb;
  }
}

TEST_F(FsBitmapTest, FsckMatchesThePerBitReferenceOnRandomCorruption) {
  {
    auto fs = FileSystem::Mount(dev_);
    ASSERT_TRUE(fs.has_value());
    for (int i = 0; i < 4; ++i) {
      std::string path = "/f" + std::to_string(i);
      ASSERT_EQ(fs->CreateFile(path), FsStatus::kOk);
      auto blocks = static_cast<std::size_t>(5 + 7 * i);
      std::vector<std::byte> data(blocks * kBlockSize, std::byte{1});
      ASSERT_EQ(fs->WriteFile(path, 0, data), FsStatus::kOk);
    }
  }
  ASSERT_TRUE(Fsck(dev_, false).Clean());
  const std::vector<bool> want = RefDecode();

  Rng rng(19);
  for (int round = 0; round < 6; ++round) {
    std::vector<BlockBuf> blocks = ReadBitmap();
    // Random flips over every bit of every bitmap block, past the end too.
    for (BlockBuf& buf : blocks) {
      for (int f = 0; f < 300; ++f) {
        std::uint64_t i = rng.Below(kBlocksPerBitmapBlock);
        RefSetBit(buf, i, !RefBit(buf, i));
      }
    }
    // Stray set bits past the end: the rest of the last word, and bytes
    // past it.
    BlockBuf& last = blocks.back();
    for (std::uint64_t i = kBlocks % kBlocksPerBitmapBlock; i < 64; ++i) {
      RefSetBit(last, i, true);
    }
    last[200] = std::byte{0xA5};
    // A metadata bit and a used data bit cleared.
    RefSetBit(blocks[0], 0, false);
    RefSetBit(blocks[0], sb_.data_start, false);
    WriteBitmap(blocks);

    // Reference count and repair.
    std::uint64_t mismatches = 0;
    std::vector<BlockBuf> repaired = blocks;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      BlockBuf& buf = repaired[b / kBlocksPerBitmapBlock];
      std::uint64_t i = b % kBlocksPerBitmapBlock;
      if (RefBit(buf, i) != want[b]) {
        ++mismatches;
        RefSetBit(buf, i, want[b]);
      }
    }
    ASSERT_GT(mismatches, 0u);

    FsckReport check = Fsck(dev_, false);
    EXPECT_EQ(check.bitmap_mismatches, mismatches) << "round " << round;
    EXPECT_EQ(ReadBitmap(), blocks) << "a check pass must not write";
    FsckReport fix = Fsck(dev_, true);
    EXPECT_EQ(fix.bitmap_mismatches, mismatches);
    EXPECT_EQ(ReadBitmap(), repaired) << "round " << round;
    FsckReport after = Fsck(dev_, false);
    EXPECT_TRUE(after.Clean()) << after.ToString();
  }
}

TEST_F(FsBitmapTest, AllocBlockIsFirstFitOverTheOnDiskBitmap) {
  // Only a few scattered data blocks are free in the two full bitmap
  // blocks, about half of the partial last word is, and every stray bit
  // past the end is set.
  Rng rng(7);
  std::vector<BlockBuf> blocks(sb_.bitmap_blocks);
  for (BlockBuf& buf : blocks) buf.fill(std::byte{0xFF});
  for (std::uint32_t bb = 0; bb < 2; ++bb) {
    for (int f = 0; f < 15; ++f) {
      std::uint64_t b = bb * kBlocksPerBitmapBlock +
                        rng.Below(kBlocksPerBitmapBlock);
      if (b < sb_.data_start) continue;
      RefSetBit(blocks[bb], b % kBlocksPerBitmapBlock, false);
    }
  }
  for (std::uint64_t b = 2 * kBlocksPerBitmapBlock; b < kBlocks; ++b) {
    if (rng.Chance(0.5)) RefSetBit(blocks[2], b % kBlocksPerBitmapBlock, false);
  }
  WriteBitmap(blocks);

  std::vector<bool> before = RefDecode();
  auto fs = FileSystem::Mount(dev_);
  ASSERT_TRUE(fs.has_value());
  for (int i = 0; i < 4; ++i) {
    std::string path = "/f" + std::to_string(i);
    ASSERT_EQ(fs->CreateFile(path), FsStatus::kOk);
    std::vector<std::byte> data(4 * kBlockSize, std::byte{2});
    ASSERT_EQ(fs->WriteFile(path, 0, data), FsStatus::kOk);
  }
  // The root directory block plus 4 x 4 data blocks.
  EXPECT_EQ(ExpectFirstFit(before), 17u);

  // Free blocks scattered across words, then reallocate them first.
  ASSERT_EQ(fs->Unlink("/f1"), FsStatus::kOk);
  ASSERT_EQ(fs->Unlink("/f3"), FsStatus::kOk);
  before = RefDecode();
  ASSERT_EQ(fs->CreateFile("/big"), FsStatus::kOk);
  std::vector<std::byte> big(20 * kBlockSize, std::byte{3});
  ASSERT_EQ(fs->WriteFile("/big", 0, big), FsStatus::kOk);
  // 20 data blocks plus one single-indirect block.
  EXPECT_EQ(ExpectFirstFit(before), 21u);

  // Fill the device: allocation runs into the partial last word and stops
  // at total_blocks, never at a stray bit.
  before = RefDecode();
  std::uint64_t free_data = 0;
  for (std::uint64_t b = sb_.data_start; b < kBlocks; ++b) {
    if (!before[b]) ++free_data;
  }
  ASSERT_EQ(fs->CreateFile("/fill"), FsStatus::kOk);
  std::vector<std::byte> fill(200 * kBlockSize, std::byte{4});
  EXPECT_EQ(fs->WriteFile("/fill", 0, fill), FsStatus::kNoSpace);
  EXPECT_EQ(ExpectFirstFit(before), free_data);
  EXPECT_EQ(fs->WriteFile("/f0", 4 * kBlockSize, big), FsStatus::kNoSpace);

  // The partial last word went back to disk with its stray bits cleared.
  BlockBuf last{};
  ASSERT_TRUE(dev_.ReadBlock(sb_.bitmap_start + 2, last));
  for (std::uint64_t i = kBlocks % kBlocksPerBitmapBlock;
       i < kBlocksPerBitmapBlock; ++i) {
    ASSERT_FALSE(RefBit(last, i)) << "stray bit " << i;
  }
}

TEST_F(FsBitmapTest, MountIgnoresStrayBitsPastTheEnd) {
  // Every block in use but the last one; the stray bits after it are free
  // on disk, and must not be handed out.
  std::vector<BlockBuf> blocks(sb_.bitmap_blocks);
  for (BlockBuf& buf : blocks) buf.fill(std::byte{0xFF});
  BlockBuf& last = blocks.back();
  for (std::uint64_t i = kBlocks % kBlocksPerBitmapBlock - 1;
       i < kBlocksPerBitmapBlock; ++i) {
    RefSetBit(last, i, false);
  }
  WriteBitmap(blocks);

  auto fs = FileSystem::Mount(dev_);
  ASSERT_TRUE(fs.has_value());
  // The root directory's first block takes the one free block.
  ASSERT_EQ(fs->CreateFile("/a"), FsStatus::kOk);
  std::vector<bool> used = RefDecode();
  EXPECT_TRUE(used[kBlocks - 1]);
  std::vector<std::byte> data(kBlockSize, std::byte{5});
  EXPECT_EQ(fs->WriteFile("/a", 0, data), FsStatus::kNoSpace);
}

}  // namespace
}  // namespace insider::fs
