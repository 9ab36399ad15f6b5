// Lazy-NAND regression (ISSUE 7 satellite): an empty device materializes no
// block storage, reads never allocate, and an empty paper-scale (512 GB)
// device's resident footprint stays under the 64 MiB acceptance bound.
#include <gtest/gtest.h>

#include "ftl/page_ftl.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider {
namespace {

TEST(NandFootprintTest, EmptyArrayMaterializesNothing) {
  nand::FlashArray array(nand::Geometry::Seed(), nand::LatencyModel::Zero());
  EXPECT_EQ(array.MaterializedBlocks(), 0u);
}

TEST(NandFootprintTest, ReadsOfPristinePagesDoNotMaterialize) {
  nand::FlashArray array(nand::Geometry::Seed(), nand::LatencyModel::Zero());
  nand::NandResult r = array.ReadPage(12345, 0);
  EXPECT_EQ(r.status, nand::NandStatus::kReadOfErasedPage);
  EXPECT_EQ(array.PeekPage(12345), nullptr);
  EXPECT_FALSE(array.IsProgrammed(12345));
  EXPECT_FALSE(array.IsBadPage(12345));
  EXPECT_EQ(array.TotalEraseCount(), 0u);
  EXPECT_EQ(array.MaterializedBlocks(), 0u);
}

TEST(NandFootprintTest, FirstProgramMaterializesExactlyOneBlock) {
  nand::Geometry geo = nand::Geometry::Seed();
  nand::FlashArray array(geo, nand::LatencyModel::Zero());
  nand::PageData data;
  data.stamp = 7;
  ASSERT_TRUE(array.ProgramPage(geo.MakePpa(3, 5, 0), data, 0).ok());
  EXPECT_EQ(array.MaterializedBlocks(), 1u);
  const nand::PageData* back = array.PeekPage(geo.MakePpa(3, 5, 0));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->stamp, 7u);
}

TEST(NandFootprintTest, BlockStorageIsLazyUntilFirstProgram) {
  nand::Block block(64);
  EXPECT_FALSE(block.Materialized());
  EXPECT_EQ(block.PagesPerBlock(), 64u);
  EXPECT_TRUE(block.IsErased());
  EXPECT_EQ(block.Read(0), nullptr);
  ASSERT_TRUE(block.Program(0, nand::PageData{}));
  EXPECT_TRUE(block.Materialized());
}

TEST(PaperScaleFootprintTest, EmptyPaperScaleArrayCostsMegabytes) {
  nand::FlashArray array(nand::Geometry::PaperScale(),
                         nand::LatencyModel::Zero());
  EXPECT_EQ(array.MaterializedBlocks(), 0u);
  // 131,072 block-pointer slots + 64 chip objects: low single-digit MiB.
  EXPECT_LT(array.ResidentBytesEstimate(), 8u << 20);
}

TEST(PaperScaleFootprintTest, EmptyPaperScaleFtlStaysUnder64MiB) {
  ftl::FtlConfig config;
  config.geometry = nand::Geometry::PaperScale();
  config.latency = nand::LatencyModel::Zero();
  ftl::PageFtl ftl(config);
  // The ISSUE 7 acceptance bound: empty 512 GB device under 64 MiB resident.
  EXPECT_LT(ftl.ResidentBytesEstimate(), 64ull << 20);
  // And it is genuinely bootable: a write and read-back work.
  ASSERT_TRUE(ftl.WritePage(0, {123, {}}, 1000).ok());
  ftl::FtlResult r = ftl.ReadPage(0, 2000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data.stamp, 123u);
}

}  // namespace
}  // namespace insider
