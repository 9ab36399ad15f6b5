// Geometry presets, typed validation, and 64-bit PPA arithmetic at the
// paper's device scale (ISSUE 7): Geometry::PaperScale() is the 8-channel x
// 8-way 512 GB shape every prior result approximated with toy geometries.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pretrained.h"
#include "host/ssd.h"
#include "nand/geometry.h"

namespace insider::nand {
namespace {

TEST(GeometryPresetTest, ToyMatchesHistoricalTestGeometry) {
  Geometry toy = Geometry::Toy();
  EXPECT_EQ(toy.channels, 2u);
  EXPECT_EQ(toy.ways, 2u);
  EXPECT_EQ(toy.blocks_per_chip, 16u);
  EXPECT_EQ(toy.pages_per_block, 8u);
  EXPECT_EQ(toy.TotalPages(), 512u);
  // TestGeometry() is the compatibility alias older tests use.
  EXPECT_EQ(TestGeometry().TotalPages(), toy.TotalPages());
}

TEST(GeometryPresetTest, SeedIsTheDefaultShape) {
  Geometry seed = Geometry::Seed();
  EXPECT_EQ(seed.channels, Geometry{}.channels);
  EXPECT_EQ(seed.TotalPages(), Geometry{}.TotalPages());
  EXPECT_TRUE(ValidateGeometry(seed).ok());
}

TEST(GeometryPresetTest, PaperScaleIs512GiBEightByEight) {
  Geometry g = Geometry::PaperScale();
  EXPECT_EQ(g.channels, 8u);
  EXPECT_EQ(g.ways, 8u);
  EXPECT_EQ(g.TotalChips(), 64u);
  EXPECT_EQ(g.page_size, 4096u);
  EXPECT_EQ(g.TotalPages(), 134'217'728u);
  EXPECT_EQ(g.CapacityBytes(), 512ull * 1024 * 1024 * 1024);
  EXPECT_TRUE(ValidateGeometry(g).ok());
}

TEST(GeometryValidationTest, RejectsZeroDimensions) {
  Geometry g = Geometry::Toy();
  g.pages_per_block = 0;
  GeometryError err = ValidateGeometry(g);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.issue, GeometryIssue::kZeroDimension);
  EXPECT_STREQ(ToString(err.issue), "zero-dimension");
}

TEST(GeometryValidationTest, RejectsPpaSpaceBeyond2To63) {
  // 65536 chips x 2^21 blocks x 2^21 pages = 2^16 * 2^42 = 2^58... push all
  // dimensions to their u32 limits instead: 2^32 chips alone overflows.
  Geometry g;
  g.channels = 65536;
  g.ways = 65536;               // 2^32 chips
  g.blocks_per_chip = 1 << 16;  // 2^48 blocks
  g.pages_per_block = 1 << 16;  // 2^64 pages
  GeometryError err = ValidateGeometry(g);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.issue, GeometryIssue::kPpaSpaceOverflow);
}

TEST(GeometryValidationTest, RejectsBlockIdsBeyond32Bits) {
  // 2^16 chips x 2^17 blocks = 2^33 blocks: PPA space fine (2^36 pages with
  // 8 pages/block) but global block ids no longer fit uint32_t.
  Geometry g;
  g.channels = 256;
  g.ways = 256;
  g.blocks_per_chip = 1 << 17;
  g.pages_per_block = 8;
  GeometryError err = ValidateGeometry(g);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.issue, GeometryIssue::kBlockIdOverflow);
}

TEST(GeometryValidationTest, RejectsCapacityByteOverflow) {
  // 2^54 pages (fits PPA space and block-id checks: 2^31 blocks) but
  // 2^54 * 2^12 bytes = 2^66 overflows CapacityBytes().
  Geometry g;
  g.channels = 16;
  g.ways = 8;                   // 2^7 chips
  g.blocks_per_chip = 1 << 24;  // 2^31 blocks
  g.pages_per_block = 1 << 23;  // 2^54 pages
  g.page_size = 4096;
  GeometryError err = ValidateGeometry(g);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.issue, GeometryIssue::kCapacityOverflow);
}

TEST(GeometryValidationTest, RejectsPageIdsBeyond32Bits) {
  // The FTL stores page ids in 32 bits with all-ones as "none", so the
  // largest PPA must be 2^32 - 2: TotalPages = 2^32 - 2 is the largest
  // accepted device. 2^32 - 2 = 2 x (2^31 - 1).
  Geometry largest;
  largest.channels = 1;
  largest.ways = 2;
  largest.blocks_per_chip = 1;
  largest.pages_per_block = 0x7FFF'FFFFu;
  ASSERT_EQ(largest.TotalPages(), 0xFFFF'FFFEull);
  EXPECT_TRUE(ValidateGeometry(largest).ok());
  // 2^32 - 1 = 3 x 5 x (17 x 257) x 65537.
  Geometry past;
  past.channels = 3;
  past.ways = 5;
  past.blocks_per_chip = 17 * 257;
  past.pages_per_block = 65537;
  ASSERT_EQ(past.TotalPages(), 0xFFFF'FFFFull);
  GeometryError err = ValidateGeometry(past);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.issue, GeometryIssue::kPageIdOverflow);
  EXPECT_STREQ(ToString(err.issue), "page-id-overflow");
  // A 16 TiB device of 4 KiB pages: 2^32 pages.
  Geometry sixteen_tib = Geometry::PaperScale();
  sixteen_tib.blocks_per_chip *= 32;
  ASSERT_EQ(sixteen_tib.CapacityBytes(), 16ull << 40);
  EXPECT_EQ(ValidateGeometry(sixteen_tib).issue,
            GeometryIssue::kPageIdOverflow);
}

TEST(GeometryValidationTest, FtlRefusesARejectedGeometryWithoutBuildingIt) {
  // The FTL validates at construction: a 16 TiB device builds no mapping
  // table or block array and exports no LBAs, so the host's every command
  // is out of range.
  host::SsdConfig cfg;
  cfg.ftl.geometry = Geometry::PaperScale();
  cfg.ftl.geometry.blocks_per_chip *= 32;
  cfg.ftl.latency = LatencyModel::Zero();
  cfg.ftl.checkpoint.enabled = true;
  host::Ssd ssd(cfg, core::PretrainedTree());
  const ftl::PageFtl& ftl = ssd.Ftl();
  EXPECT_EQ(ftl.GeometryStatus().issue, GeometryIssue::kPageIdOverflow);
  EXPECT_FALSE(ftl.GeometryStatus().detail.empty());
  EXPECT_EQ(ftl.ExportedLbas(), 0u);
  EXPECT_EQ(ftl.Config().geometry.TotalPages(), 0u);
  EXPECT_EQ(ftl.MetadataBlockCount(), 0u);
  EXPECT_LT(ftl.ResidentBytesEstimate(), 1u << 20);
  EXPECT_EQ(ssd.Submit({Seconds(1), 0, 1, IoMode::kWrite}, 1),
            ftl::FtlStatus::kOutOfRange);
  EXPECT_EQ(ssd.Submit({Seconds(2), 0, 1, IoMode::kRead}, 1),
            ftl::FtlStatus::kOutOfRange);
  ssd.DrainFirmware(Seconds(60));  // background work finds nothing to do
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(GeometryScaleTest, DenseStructuredRoundTripAtPaperScaleEdges) {
  Geometry g = Geometry::PaperScale();
  const std::uint32_t last_chip = g.TotalChips() - 1;
  const std::uint32_t last_block = g.blocks_per_chip - 1;
  const std::uint32_t last_page = g.pages_per_block - 1;
  struct Case {
    std::uint32_t chip, block, page;
  };
  const Case cases[] = {
      {0, 0, 0},
      {0, 0, last_page},
      {0, last_block, last_page},
      {last_chip, 0, 0},
      {last_chip, last_block, last_page},
      {last_chip / 2, last_block / 2, last_page / 2},
  };
  const PpaDecoder d(g);
  for (const Case& c : cases) {
    Ppa ppa = g.MakePpa(c.chip, c.block, c.page);
    EXPECT_TRUE(g.ValidPpa(ppa));
    EXPECT_EQ(d.ChipOf(ppa), c.chip);
    EXPECT_EQ(d.BlockOf(ppa), c.block);
    EXPECT_EQ(d.PageOf(ppa), c.page);
  }
  // The last page of the device is exactly TotalPages() - 1: the dense
  // encoding is a bijection onto [0, TotalPages).
  EXPECT_EQ(g.MakePpa(last_chip, last_block, last_page), g.TotalPages() - 1);
  EXPECT_FALSE(g.ValidPpa(g.TotalPages()));
}

TEST(GeometryScaleTest, DenseStructuredRoundTripRandomSample) {
  Geometry g = Geometry::PaperScale();
  const PpaDecoder d(g);
  Rng rng(0x9e0'5ca1e);
  for (int i = 0; i < 10'000; ++i) {
    std::uint32_t chip =
        static_cast<std::uint32_t>(rng.Below(g.TotalChips()));
    std::uint32_t block =
        static_cast<std::uint32_t>(rng.Below(g.blocks_per_chip));
    std::uint32_t page =
        static_cast<std::uint32_t>(rng.Below(g.pages_per_block));
    Ppa ppa = g.MakePpa(chip, block, page);
    ASSERT_EQ(d.BlockAddrOf(ppa), (BlockAddr{chip, block}));
    ASSERT_EQ(d.PageOf(ppa), page);
    ASSERT_LT(d.ChannelOfChip(chip), g.channels);
  }
}

}  // namespace
}  // namespace insider::nand
