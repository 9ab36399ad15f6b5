// Tests of the FTL's multi-frontier striping, wear behavior, and the
// interaction of GC with the chip-parallel layout.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

FtlConfig StripedConfig(bool delayed = true) {
  FtlConfig c;
  c.geometry = nand::TestGeometry();  // 4 chips, 16 blocks/chip, 8 pp/b
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = delayed;
  c.exported_fraction = 0.75;
  return c;
}

TEST(StripingTest, ConsecutiveWritesRotateAcrossChips) {
  PageFtl ftl(StripedConfig());
  std::vector<std::uint32_t> chips;
  for (Lba lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, {lba, {}}, 0).ok());
    chips.push_back(ftl.Nand().Decoder().ChipOf(*ftl.Lookup(lba)));
  }
  // Round-robin over 4 chips: positions i and i+4 share a chip, adjacent
  // positions don't.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chips[i], chips[i + 4]);
    EXPECT_NE(chips[i], chips[(i + 1) % 4]);
  }
}

TEST(StripingTest, AllChipsCarryData) {
  PageFtl ftl(StripedConfig());
  const nand::Geometry& geo = ftl.Config().geometry;
  for (Lba lba = 0; lba < 64; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
  }
  std::set<std::uint32_t> used_chips;
  for (Lba lba = 0; lba < 64; ++lba) {
    used_chips.insert(ftl.Nand().Decoder().ChipOf(*ftl.Lookup(lba)));
  }
  EXPECT_EQ(used_chips.size(), geo.TotalChips());
}

TEST(StripingTest, FreeBlockCountTracksPoolExactly) {
  PageFtl ftl(StripedConfig());
  const nand::Geometry& geo = ftl.Config().geometry;
  EXPECT_EQ(ftl.FreeBlockCount(), geo.TotalBlocks());
  // First 4 writes open one active block per chip.
  for (Lba lba = 0; lba < 4; ++lba) ftl.WritePage(lba, {0, {}}, 0);
  EXPECT_EQ(ftl.FreeBlockCount(), geo.TotalBlocks() - 4);
  // Filling those 4 blocks (8 pages each) doesn't consume more...
  for (Lba lba = 4; lba < 32; ++lba) ftl.WritePage(lba, {0, {}}, 0);
  EXPECT_EQ(ftl.FreeBlockCount(), geo.TotalBlocks() - 4);
  // ...until they're full and the next stripe opens 4 fresh ones.
  for (Lba lba = 32; lba < 36; ++lba) ftl.WritePage(lba, {0, {}}, 0);
  EXPECT_EQ(ftl.FreeBlockCount(), geo.TotalBlocks() - 8);
}

TEST(StripingTest, ParallelLatencyAcrossChips) {
  FtlConfig cfg = StripedConfig();
  cfg.latency = nand::LatencyModel{};  // real latencies
  PageFtl ftl(cfg);
  // Four writes submitted at t=0 go to four different chips on two
  // channels: they pairwise overlap, so the last completes well before
  // 4x a serial program time.
  SimTime last = 0;
  for (Lba lba = 0; lba < 4; ++lba) {
    FtlResult r = ftl.WritePage(lba, {lba, {}}, 0);
    ASSERT_TRUE(r.ok());
    last = std::max(last, r.complete_time);
  }
  SimTime serial = 4 * (cfg.latency.page_program + cfg.latency.channel_transfer);
  EXPECT_LT(last, serial / 2 + cfg.latency.page_program);
}

TEST(WearTest, StartsEven) {
  PageFtl ftl(StripedConfig());
  PageFtl::WearStats w = ftl.Wear();
  EXPECT_EQ(w.min_erases, 0u);
  EXPECT_EQ(w.max_erases, 0u);
}

TEST(WearTest, ChurnSpreadsErasesAcrossBlocks) {
  PageFtl ftl(StripedConfig(false));
  Lba n = ftl.ExportedLbas();
  // Sustained full-device rewrites force continuous GC.
  for (int round = 0; round < 30; ++round) {
    for (Lba lba = 0; lba < n; ++lba) {
      ASSERT_TRUE(ftl.WritePage(lba, {lba, {}}, 0).ok());
    }
  }
  PageFtl::WearStats w = ftl.Wear();
  EXPECT_GT(w.mean_erases, 5.0);  // real churn happened
  // With the least-worn tie-break, no block lags far behind or races far
  // ahead of the average.
  EXPECT_LE(w.max_erases, static_cast<std::uint64_t>(w.mean_erases * 3) + 3);
  EXPECT_GE(w.min_erases + 3,
            static_cast<std::uint64_t>(w.mean_erases / 3));
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(StripingTest, GcWorksWhenOneChipIsHot) {
  // Repeatedly overwriting a handful of LBAs concentrates traffic; GC must
  // still function and the data must survive.
  PageFtl ftl(StripedConfig(false));
  for (int i = 0; i < 4000; ++i) {
    Lba lba = static_cast<Lba>(i % 3);
    ASSERT_TRUE(
        ftl.WritePage(lba, {static_cast<std::uint64_t>(i), {}}, 0).ok());
  }
  EXPECT_EQ(ftl.ReadPage(0, 0).data.stamp, 3999u);
  EXPECT_EQ(ftl.ReadPage(1, 0).data.stamp, 3997u);
  EXPECT_EQ(ftl.ReadPage(2, 0).data.stamp, 3998u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

class StripingFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StripingFuzzTest, InvariantsAndDataSurviveChurn) {
  Rng rng(GetParam());
  PageFtl ftl(StripedConfig(true));
  Lba n = ftl.ExportedLbas();
  std::vector<std::int64_t> model(n, -1);  // expected stamp, -1 = unmapped
  SimTime now = 0;
  for (int op = 0; op < 3000; ++op) {
    now += rng.BelowTime(100'000);  // ~0-0.1 s steps: backups keep expiring
    Lba lba = rng.Below(n);
    double dice = rng.Uniform();
    if (dice < 0.6) {
      ASSERT_TRUE(
          ftl.WritePage(lba, {static_cast<std::uint64_t>(op), {}}, now).ok());
      model[lba] = op;
    } else if (dice < 0.8) {
      FtlResult r = ftl.ReadPage(lba, now);
      if (model[lba] < 0) {
        EXPECT_EQ(r.status, FtlStatus::kUnmapped);
      } else {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.data.stamp, static_cast<std::uint64_t>(model[lba]));
      }
    } else {
      FtlResult r = ftl.TrimPage(lba, now);
      EXPECT_EQ(r.ok(), model[lba] >= 0);
      model[lba] = -1;
    }
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripingFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace insider::ftl
