// Lazy-NAND regression (ISSUE 7 satellite): an empty device materializes no
// block storage, reads never allocate, and an empty paper-scale (512 GB)
// device's resident footprint stays under the 64 MiB acceptance bound.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

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
  EXPECT_FALSE(array.PeekPage(12345).has_value());
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
  const std::optional<nand::PageView> back =
      array.PeekPage(geo.MakePpa(3, 5, 0));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stamp, 7u);
}

TEST(NandFootprintTest, BlockStorageIsLazyUntilFirstProgram) {
  nand::Block block(64);
  EXPECT_FALSE(block.Materialized());
  EXPECT_EQ(block.PagesPerBlock(), 64u);
  EXPECT_TRUE(block.IsErased());
  EXPECT_FALSE(block.Read(0).has_value());
  ASSERT_TRUE(block.Program(0, nand::PageData{}));
  EXPECT_TRUE(block.Materialized());
}

TEST(NandFootprintTest, PagesCostTheirRecordAndPayloadBytesOnly) {
  nand::Geometry geo = nand::Geometry::Seed();
  nand::FlashArray array(geo, nand::LatencyModel::Zero());
  const std::uint64_t empty = array.ResidentBytesEstimate();

  // A materialized block without payloads: one 32-byte record per page,
  // plus at most the bad-page bitmap words.
  ASSERT_TRUE(array.ProgramPage(geo.MakePpa(0, 0, 0), nand::PageView{1}, 0)
                  .ok());
  const std::uint64_t records = array.ResidentBytesEstimate() - empty;
  const std::uint64_t bitmap_bytes =
      (geo.pages_per_block + 63) / 64 * sizeof(std::uint64_t);
  EXPECT_LE(records, 32ull * geo.pages_per_block + bitmap_bytes);

  // One payload page adds its bytes plus a small handle.
  const std::vector<std::byte> payload(geo.page_size, std::byte{0x5A});
  ASSERT_TRUE(
      array.ProgramPage(geo.MakePpa(0, 0, 1), nand::PageData{2, payload}, 0)
          .ok());
  const std::uint64_t added =
      array.ResidentBytesEstimate() - empty - records;
  EXPECT_GE(added, geo.page_size);
  EXPECT_LE(added, geo.page_size + 64);

  // Erase releases the payload; the record array stays for the next cycle.
  ASSERT_TRUE(array.EraseBlock({0, 0}, 0).ok());
  EXPECT_EQ(array.ResidentBytesEstimate() - empty, records);
  EXPECT_EQ(array.MaterializedBlocks(), 1u);
}

TEST(PaperScaleFootprintTest, EmptyPaperScaleArrayCostsMegabytes) {
  nand::FlashArray array(nand::Geometry::PaperScale(),
                         nand::LatencyModel::Zero());
  EXPECT_EQ(array.MaterializedBlocks(), 0u);
  // 131,072 flat block headers, no page storage: low single-digit MiB.
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

/// Estimate growth from writing `n` LBAs at t=0 and overwriting them all
/// 1 s later, inside the 10 s retention window.
std::uint64_t OverwriteGrowth(bool delayed, Lba n) {
  ftl::FtlConfig config;
  config.geometry = nand::TestGeometry();
  config.latency = nand::LatencyModel::Zero();
  config.delayed_deletion = delayed;
  ftl::PageFtl ftl(config);
  for (Lba lba = 0; lba < n; ++lba) {
    EXPECT_TRUE(ftl.WritePage(lba, {lba, {}}, 0).ok());
  }
  const std::uint64_t before = ftl.ResidentBytesEstimate();
  for (Lba lba = 0; lba < n; ++lba) {
    EXPECT_TRUE(ftl.WritePage(lba, {lba + n, {}}, Seconds(1)).ok());
  }
  EXPECT_EQ(ftl.RecoveryQueueSize(), delayed ? n : 0u);
  return ftl.ResidentBytesEstimate() - before;
}

TEST(FtlFootprintTest, EstimateCountsRecoveryQueue) {
  // Both runs program the same pages, so mapping tables and NAND grow
  // alike; only the retained backups tell them apart.
  constexpr Lba kN = 64;
  EXPECT_GE(OverwriteGrowth(true, kN),
            OverwriteGrowth(false, kN) +
                kN * ftl::RecoveryQueue::StoredEntryBytes());
}

}  // namespace
}  // namespace insider
