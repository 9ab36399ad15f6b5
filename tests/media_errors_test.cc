// Media-error (ECC) model tests: error sampling, wear dependence, the FTL's
// lost-page handling, and the recovery queue's tombstone machinery.
#include <gtest/gtest.h>

#include "ftl/page_ftl.h"
#include "ftl/recovery_queue.h"
#include "nand/flash_array.h"

namespace insider {
namespace {

TEST(ErrorModelTest, DisabledByDefault) {
  nand::ErrorModel m;
  EXPECT_FALSE(m.Enabled());
  nand::FlashArray nand(nand::TestGeometry());
  nand::Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
  nand.ProgramPage(ppa, {1, {}}, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(nand.ReadPage(ppa, 0).ok());
  }
  EXPECT_EQ(nand.Counters().corrected_reads, 0u);
  EXPECT_EQ(nand.Counters().uncorrectable_reads, 0u);
}

TEST(ErrorModelTest, EffectiveBerGrowsWithWear) {
  nand::ErrorModel m;
  m.base_ber = 1e-6;
  m.wear_factor = 0.01;
  EXPECT_DOUBLE_EQ(m.EffectiveBer(0), 1e-6);
  EXPECT_GT(m.EffectiveBer(1000), 10 * m.EffectiveBer(0));
}

TEST(ErrorModelTest, ModerateBerIsMostlyCorrected) {
  // lambda = 1e-5 * 32768 bits ~ 0.33 errors/page: ECC with budget 8
  // corrects everything; no retries, no failures.
  nand::ErrorModel m;
  m.base_ber = 1e-5;
  nand::FlashArray nand(nand::TestGeometry(), nand::LatencyModel::Zero(), m);
  nand::Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
  nand.ProgramPage(ppa, {1, {}}, 0);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(nand.ReadPage(ppa, 0).ok());
  }
  EXPECT_GT(nand.Counters().corrected_reads, 500u);
  EXPECT_EQ(nand.Counters().uncorrectable_reads, 0u);
}

TEST(ErrorModelTest, ExtremeBerFailsUncorrectably) {
  // lambda ~ 33 errors/page >> the 8-bit budget: every read fails.
  nand::ErrorModel m;
  m.base_ber = 1e-3;
  nand::FlashArray nand(nand::TestGeometry(), nand::LatencyModel::Zero(), m);
  nand::Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
  nand.ProgramPage(ppa, {1, {}}, 0);
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (nand.ReadPage(ppa, 0).status == nand::NandStatus::kUncorrectableEcc) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 90);
  EXPECT_GT(nand.Counters().uncorrectable_reads, 90u);
}

TEST(ErrorModelTest, RetryBandAddsLatency) {
  // lambda ~ 10.5: usually in (8, 16] -> retry with extra latency.
  nand::ErrorModel m;
  m.base_ber = 3.2e-4;
  m.retry_latency = Microseconds(80);
  nand::LatencyModel lat;
  nand::FlashArray nand(nand::TestGeometry(), lat, m);
  nand::Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
  nand.ProgramPage(ppa, {1, {}}, 0);
  bool saw_retry_latency = false;
  for (int i = 0; i < 200; ++i) {
    SimTime t = Seconds(1) + i * Seconds(1);  // idle die each time
    nand::NandResult r = nand.ReadPage(ppa, t);
    if (r.ok() &&
        r.complete_time ==
            t + lat.page_read + m.retry_latency + lat.channel_transfer) {
      saw_retry_latency = true;
    }
  }
  EXPECT_TRUE(saw_retry_latency);
  EXPECT_GT(nand.Counters().read_retries, 0u);
}

TEST(ErrorModelTest, DeterministicForSeed) {
  nand::ErrorModel m;
  m.base_ber = 2e-4;
  auto run = [&](std::uint64_t seed) {
    nand::FlashArray nand(nand::TestGeometry(), nand::LatencyModel::Zero(), m,
                          seed);
    nand::Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
    nand.ProgramPage(ppa, {1, {}}, 0);
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(nand.ReadPage(ppa, 0).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// --- FTL behavior under media errors ---------------------------------------

ftl::FtlConfig ErrorFtl(double ber) {
  ftl::FtlConfig c;
  c.geometry = nand::TestGeometry();
  c.latency = nand::LatencyModel::Zero();
  c.errors.base_ber = ber;
  c.exported_fraction = 0.5;
  return c;
}

TEST(FtlMediaErrorTest, HostReadSurfacesReadError) {
  ftl::PageFtl ftl(ErrorFtl(1e-3));  // every read fails
  ASSERT_TRUE(ftl.WritePage(3, {1, {}}, 0).ok());
  EXPECT_EQ(ftl.ReadPage(3, 0).status, ftl::FtlStatus::kReadError);
}

TEST(FtlMediaErrorTest, GcSurvivesLostPages) {
  // With a harsh error rate, GC relocation loses pages; the FTL must stay
  // internally consistent and account the losses.
  ftl::PageFtl ftl(ErrorFtl(4e-4));  // lambda ~ 13: retries and failures mix
  Lba n = ftl.ExportedLbas();
  Rng rng(3);
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, {lba, {}}, Seconds(1)).ok());
  }
  for (int i = 0; i < 3000; ++i) {
    // Spread over time so backups expire and GC churns.
    SimTime t = Seconds(2) + CostOf(static_cast<std::uint64_t>(i), 20'000);
    ASSERT_TRUE(
        ftl.WritePage(rng.Below(n), {static_cast<std::uint64_t>(i), {}}, t)
            .ok());
  }
  EXPECT_GT(ftl.Stats().gc_lost_pages, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

// --- Recovery-queue tombstones ---------------------------------------------

TEST(QueueDropTest, DropRemovesGuardAndSize) {
  ftl::RecoveryQueue q(0);
  const auto id = q.Push(1, 100, 1).id;
  q.Push(2, 101, 2);
  EXPECT_TRUE(q.Drop(id, 100));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Guards(id, 100));
  EXPECT_FALSE(q.Drop(id, 100));  // already gone
}

TEST(QueueDropTest, PopsSkipTombstones) {
  ftl::RecoveryQueue q(0);
  const auto id = q.Push(1, 100, 1).id;
  q.Push(2, 101, 2);
  q.Push(3, 102, 3);
  q.Drop(id, 100);
  auto e = q.PopOldest();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->lba, 2u);
}

TEST(QueueDropTest, RollbackSkipsTombstones) {
  ftl::RecoveryQueue q(0);
  q.Push(1, 100, Seconds(20));
  const auto id = q.Push(2, 101, Seconds(21)).id;
  q.Drop(id, 101);
  std::vector<Lba> reverted;
  q.RollBack(Seconds(10),
             [&](const ftl::BackupEntry& e) { reverted.push_back(e.lba); });
  EXPECT_EQ(reverted, std::vector<Lba>{1});
  EXPECT_TRUE(q.Empty());
}

TEST(QueueDropTest, ReleaseSkipsTombstones) {
  ftl::RecoveryQueue q(0);
  const auto id = q.Push(1, 100, 1).id;
  q.Push(2, 101, 2);
  q.Drop(id, 100);
  std::size_t released = 0;
  q.ReleaseUpTo(10, [&](const ftl::BackupEntry&) { ++released; });
  EXPECT_EQ(released, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(QueueDropTest, CapacityCountsLiveEntriesOnly) {
  ftl::RecoveryQueue q(2);
  const auto id = q.Push(1, 100, 1).id;
  q.Push(2, 101, 2);
  q.Drop(id, 100);
  // One live entry: pushing doesn't evict the live one.
  auto evicted = q.Push(3, 102, 3).evicted;
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.Size(), 2u);
}

TEST(QueueDropTest, RelocateAfterDropFails) {
  ftl::RecoveryQueue q(0);
  const auto id = q.Push(1, 100, 1).id;
  q.Drop(id, 100);
  EXPECT_FALSE(q.Relocate(id, 100, 200));
}

}  // namespace
}  // namespace insider
