// Background (idle) garbage collection: cheap reclamation during host idle
// time, honoring retained backups exactly like foreground GC.
#include <gtest/gtest.h>

#include <memory>

#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

FtlConfig Cfg(bool delayed = true) {
  FtlConfig c;
  c.geometry = nand::TestGeometry();
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = delayed;
  c.exported_fraction = 0.5;
  return c;
}

TEST(IdleGcTest, ReclaimsFullyInvalidBlocks) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Rewrite everything once: old pages invalid, scattered across blocks.
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  std::size_t free_before = ftl.FreeBlockCount();
  std::size_t reclaimed = ftl.IdleCollect(0, /*max_blocks=*/8);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_GT(ftl.FreeBlockCount(), free_before);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, SkipsExpensiveBlocks) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Invalidate only 1 page per 8-page block: every victim would cost 7
  // copies — idle GC with max_movable=2 must decline.
  for (Lba lba = 0; lba < n; lba += 8) ftl.WritePage(lba, {2, {}}, 0);
  std::size_t reclaimed = ftl.IdleCollect(0, 8, /*max_movable=*/2);
  EXPECT_EQ(reclaimed, 0u);
  // A generous budget takes them.
  reclaimed = ftl.IdleCollect(0, 2, /*max_movable=*/7);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

/// A legal but adversarial victim policy: among reclaimable blocks within
/// the cap, take the one with the *most* movable pages.
class CostliestWithinCapPolicy final : public VictimPolicy {
 public:
  const char* Name() const override { return "costliest-within-cap"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override {
    std::uint32_t victim = kNoVictim;
    for (std::uint32_t b = 0; b < view.TotalBlocks(); ++b) {
      if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) {
        continue;
      }
      const std::uint32_t movable = view.MovablePages(b);
      if (movable > max_movable) continue;
      if (victim == kNoVictim || movable > view.MovablePages(victim)) {
        victim = b;
      }
    }
    return victim;
  }
};

TEST(IdleGcTest, CapBindsEveryVictimPolicy) {
  PageFtl ftl(Cfg(false));
  ftl.SetVictimPolicy(std::make_unique<CostliestWithinCapPolicy>());
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  // Writes stripe round-robin over the 4 chips, so LBAs [0, 32) fill block
  // 0 of every chip: rewriting them leaves 4 fully invalid blocks. One
  // rewrite in each of a few later blocks leaves those with 7 movable pages.
  for (Lba lba = 0; lba < 32; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  for (Lba lba = 64; lba < n; lba += 32) ftl.WritePage(lba, {2, {}}, 0);

  const std::uint64_t copies_before = ftl.Stats().gc_page_copies;
  const std::uint32_t max_movable = 2;
  std::size_t reclaimed = ftl.IdleCollect(0, /*max_blocks=*/4, max_movable);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LE(ftl.Stats().gc_page_copies - copies_before,
            max_movable * reclaimed);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, RespectsBlockBudget) {
  PageFtl ftl(Cfg(false));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  EXPECT_LE(ftl.IdleCollect(0, 3), 3u);
}

TEST(IdleGcTest, ReadOnlyDeviceDoesNothing) {
  PageFtl ftl(Cfg(false));
  for (Lba lba = 0; lba < 64; ++lba) ftl.WritePage(lba, {1, {}}, 0);
  for (Lba lba = 0; lba < 64; ++lba) ftl.WritePage(lba, {2, {}}, 0);
  ftl.SetReadOnly(true);
  EXPECT_EQ(ftl.IdleCollect(0, 8), 0u);
}

TEST(IdleGcTest, ReleasesExpiredBackupsFirst) {
  PageFtl ftl(Cfg(true));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {1, {}}, Seconds(1));
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {2, {}}, Seconds(2));
  // At t=5 the backups are still retained: idle GC has no cheap victims
  // among the old blocks (they're full of retained pages).
  std::size_t early = ftl.IdleCollect(Seconds(5), 8, 0);
  EXPECT_EQ(early, 0u);
  // At t=20 they expired: the same call reclaims freely.
  std::size_t late = ftl.IdleCollect(Seconds(20), 8, 0);
  EXPECT_GT(late, 0u);
  EXPECT_EQ(ftl.RecoveryQueueSize(), 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(IdleGcTest, RetainedDataStaysRecoverableThroughIdleGc) {
  PageFtl ftl(Cfg(true));
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) ftl.WritePage(lba, {lba, {}}, Seconds(1));
  // Attack at t=20 on a quarter of the LBAs.
  for (Lba lba = 0; lba < n; lba += 4) {
    ftl.WritePage(lba, {9999, {}}, Seconds(20));
  }
  // Idle GC with a generous budget: may relocate retained pages, must not
  // release them.
  ftl.IdleCollect(Seconds(21), 16, 8);
  EXPECT_EQ(ftl.Stats().forced_releases, 0u);
  ftl.RollBack(Seconds(22));
  for (Lba lba = 0; lba < n; lba += 4) {
    EXPECT_EQ(ftl.ReadPage(lba, Seconds(22)).data.stamp, lba) << lba;
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

}  // namespace
}  // namespace insider::ftl
