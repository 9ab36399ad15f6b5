#include <gtest/gtest.h>

#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider::nand {
namespace {

TEST(GeometryTest, DerivedQuantities) {
  Geometry g;
  g.channels = 8;
  g.ways = 8;
  g.blocks_per_chip = 64;
  g.pages_per_block = 64;
  g.page_size = 4096;
  EXPECT_EQ(g.TotalChips(), 64u);
  EXPECT_EQ(g.PagesPerChip(), 4096u);
  EXPECT_EQ(g.TotalBlocks(), 4096u);
  EXPECT_EQ(g.TotalPages(), 262144u);
  EXPECT_EQ(g.CapacityBytes(), 1ull << 30);  // 1 GB
}

TEST(GeometryTest, PpaRoundTrip) {
  Geometry g = TestGeometry();
  const PpaDecoder d(g);
  for (std::uint32_t chip = 0; chip < g.TotalChips(); ++chip) {
    for (std::uint32_t block = 0; block < g.blocks_per_chip; block += 3) {
      for (std::uint32_t page = 0; page < g.pages_per_block; ++page) {
        Ppa ppa = g.MakePpa(chip, block, page);
        EXPECT_EQ(d.ChipOf(ppa), chip);
        EXPECT_EQ(d.BlockOf(ppa), block);
        EXPECT_EQ(d.PageOf(ppa), page);
      }
    }
  }
}

TEST(GeometryTest, PpaIsDense) {
  Geometry g = TestGeometry();
  Ppa expected = 0;
  for (std::uint32_t chip = 0; chip < g.TotalChips(); ++chip) {
    for (std::uint32_t block = 0; block < g.blocks_per_chip; ++block) {
      for (std::uint32_t page = 0; page < g.pages_per_block; ++page) {
        EXPECT_EQ(g.MakePpa(chip, block, page), expected++);
      }
    }
  }
  EXPECT_EQ(expected, g.TotalPages());
}

TEST(GeometryTest, ChannelStriping) {
  Geometry g;
  g.channels = 4;
  g.ways = 2;
  const PpaDecoder d(g);
  EXPECT_EQ(d.ChannelOfChip(0), 0u);
  EXPECT_EQ(d.ChannelOfChip(1), 1u);
  EXPECT_EQ(d.ChannelOfChip(4), 0u);
  EXPECT_EQ(d.ChannelOfChip(7), 3u);
}

TEST(BlockTest, SequentialProgramEnforced) {
  Block b(4);
  EXPECT_TRUE(b.IsErased());
  EXPECT_TRUE(b.Program(0, {1, {}}));
  EXPECT_FALSE(b.Program(2, {2, {}}));  // out of order
  EXPECT_TRUE(b.Program(1, {3, {}}));
  EXPECT_EQ(b.WritePointer(), 2u);
}

TEST(BlockTest, CannotProgramFullBlock) {
  Block b(2);
  EXPECT_TRUE(b.Program(0, {}));
  EXPECT_TRUE(b.Program(1, {}));
  EXPECT_TRUE(b.IsFull());
  EXPECT_FALSE(b.Program(0, {}));
}

TEST(BlockTest, ReadOfErasedPageIsNull) {
  Block b(4);
  EXPECT_FALSE(b.Read(0).has_value());
  b.Program(0, {77, {}});
  ASSERT_TRUE(b.Read(0).has_value());
  EXPECT_EQ(b.Read(0)->stamp, 77u);
  EXPECT_FALSE(b.Read(1).has_value());
}

TEST(BlockTest, EraseResetsAndCounts) {
  Block b(2);
  b.Program(0, {1, {}});
  b.Program(1, {2, {}});
  b.Erase();
  EXPECT_TRUE(b.IsErased());
  EXPECT_EQ(b.EraseCount(), 1u);
  EXPECT_FALSE(b.Read(0).has_value());
  EXPECT_TRUE(b.Program(0, {3, {}}));
}

class FlashArrayTest : public ::testing::Test {
 protected:
  Geometry geo_ = TestGeometry();
  FlashArray nand_{geo_};
};

TEST_F(FlashArrayTest, ProgramThenRead) {
  Ppa ppa = geo_.MakePpa(0, 0, 0);
  NandResult w = nand_.ProgramPage(ppa, {42, {}}, 0);
  ASSERT_TRUE(w.ok());
  NandResult r = nand_.ReadPage(ppa, w.complete_time);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data->stamp, 42u);
}

TEST_F(FlashArrayTest, ReadOfErasedPageFails) {
  NandResult r = nand_.ReadPage(geo_.MakePpa(0, 0, 0), 0);
  EXPECT_EQ(r.status, NandStatus::kReadOfErasedPage);
}

TEST_F(FlashArrayTest, OutOfOrderProgramFails) {
  NandResult r = nand_.ProgramPage(geo_.MakePpa(0, 0, 3), {}, 0);
  EXPECT_EQ(r.status, NandStatus::kProgramOutOfOrder);
}

TEST_F(FlashArrayTest, BadAddressRejected) {
  EXPECT_EQ(nand_.ReadPage(geo_.TotalPages(), 0).status,
            NandStatus::kBadAddress);
  EXPECT_EQ(nand_.EraseBlock({geo_.TotalChips(), 0}, 0).status,
            NandStatus::kBadAddress);
}

TEST_F(FlashArrayTest, EraseMakesBlockProgrammableAgain) {
  Ppa ppa = geo_.MakePpa(1, 2, 0);
  ASSERT_TRUE(nand_.ProgramPage(ppa, {1, {}}, 0).ok());
  ASSERT_TRUE(nand_.EraseBlock({1, 2}, 0).ok());
  EXPECT_FALSE(nand_.IsProgrammed(ppa));
  EXPECT_TRUE(nand_.ProgramPage(ppa, {2, {}}, 0).ok());
}

TEST_F(FlashArrayTest, CountersTrackOperations) {
  Ppa ppa = geo_.MakePpa(0, 0, 0);
  nand_.ProgramPage(ppa, {}, 0);
  nand_.ReadPage(ppa, 0);
  nand_.ReadPage(ppa, 0);
  nand_.EraseBlock({0, 0}, 0);
  EXPECT_EQ(nand_.Counters().page_programs, 1u);
  EXPECT_EQ(nand_.Counters().page_reads, 2u);
  EXPECT_EQ(nand_.Counters().block_erases, 1u);
}

TEST_F(FlashArrayTest, LatencyAccountedPerOperation) {
  LatencyModel lat;
  FlashArray nand(geo_, lat);
  NandResult w = nand.ProgramPage(geo_.MakePpa(0, 0, 0), {}, 1000);
  EXPECT_EQ(w.complete_time, 1000 + lat.page_program + lat.channel_transfer);
}

TEST_F(FlashArrayTest, SameChipOperationsSerialize) {
  LatencyModel lat;
  FlashArray nand(geo_, lat);
  Ppa p0 = geo_.MakePpa(0, 0, 0);
  Ppa p1 = geo_.MakePpa(0, 0, 1);
  NandResult w0 = nand.ProgramPage(p0, {}, 0);
  NandResult w1 = nand.ProgramPage(p1, {}, 0);
  // Second program on the same die starts only after the first completes.
  EXPECT_EQ(w1.complete_time,
            w0.complete_time + lat.page_program + lat.channel_transfer);
}

TEST_F(FlashArrayTest, DifferentChannelsRunInParallel) {
  LatencyModel lat;
  FlashArray nand(geo_, lat);
  // TestGeometry has 2 channels; chips 0 and 1 sit on different channels.
  NandResult a = nand.ProgramPage(geo_.MakePpa(0, 0, 0), {}, 0);
  NandResult b = nand.ProgramPage(geo_.MakePpa(1, 0, 0), {}, 0);
  EXPECT_EQ(a.complete_time, b.complete_time);  // full overlap
}

TEST_F(FlashArrayTest, ZeroLatencyModelCompletesInstantly) {
  FlashArray nand(geo_, LatencyModel::Zero());
  NandResult w = nand.ProgramPage(geo_.MakePpa(0, 0, 0), {}, 555);
  EXPECT_EQ(w.complete_time, 555);
}

TEST_F(FlashArrayTest, PayloadBytesSurviveRoundTrip) {
  PageData data;
  data.stamp = 9;
  data.bytes.assign(4096, std::byte{0xAB});
  Ppa ppa = geo_.MakePpa(2, 1, 0);
  ASSERT_TRUE(nand_.ProgramPage(ppa, data, 0).ok());
  NandResult r = nand_.ReadPage(ppa, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.data, data);
}

TEST_F(FlashArrayTest, EraseCountsAggregate) {
  nand_.ProgramPage(geo_.MakePpa(0, 0, 0), {}, 0);
  nand_.EraseBlock({0, 0}, 0);
  nand_.EraseBlock({0, 0}, 0);
  nand_.EraseBlock({1, 1}, 0);
  EXPECT_EQ(nand_.TotalEraseCount(), 3u);
  EXPECT_EQ(nand_.MaxEraseCount(), 2u);
}

}  // namespace
}  // namespace insider::nand
