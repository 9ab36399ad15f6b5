// Pluggable GC-policy parity: the default policy stack (striped allocation,
// greedy victim selection, window retention) must reproduce the pre-split
// monolithic FTL stat-for-stat. The expected numbers below were captured by
// running these exact workloads against the monolith; any drift in victim
// choice, allocation order, or retention horizon shows up as a counter
// mismatch long before it would show up in a figure.
#include <gtest/gtest.h>

#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

std::uint64_t Lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

FtlConfig MediumConfig() {
  FtlConfig cfg;
  cfg.geometry.channels = 2;
  cfg.geometry.ways = 2;
  cfg.geometry.blocks_per_chip = 32;
  cfg.geometry.pages_per_block = 16;
  cfg.latency = nand::LatencyModel::Zero();
  // The golden counters below were captured against the pre-tombstone
  // monolith; trim persistence adds a page program per trim and would shift
  // every GC number, so these workloads opt out.
  cfg.trim_tombstones = false;
  return cfg;
}

/// Deterministic mixed traffic at 90% utilization: fill, then 20k LCG-driven
/// ops (80% write / 10% trim / 10% read), 1 ms apart.
void RunHighUtilWorkload(PageFtl& ftl) {
  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 9 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
  }
  std::uint64_t seed = 0xC0FFEE;
  SimTime t = Seconds(1);
  for (int i = 0; i < 20000; ++i) {
    Lba lba = Lcg(seed) % n;
    std::uint64_t op = Lcg(seed) % 10;
    t += Milliseconds(1);
    if (op < 8) {
      ftl.WritePage(lba, {1000000 + static_cast<std::uint64_t>(i), {}}, t);
    } else if (op < 9) {
      ftl.TrimPage(lba, t);
    } else {
      ftl.ReadPage(lba, t);
    }
  }
}

TEST(GcPolicyParityTest, ConventionalMatchesMonolithGolden) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = false;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  RunHighUtilWorkload(ftl);

  const FtlStats& s = ftl.Stats();
  EXPECT_EQ(s.host_writes, 17671u);
  EXPECT_EQ(s.host_trims, 1753u);
  EXPECT_EQ(s.host_reads, 1789u);
  EXPECT_EQ(s.gc_invocations, 1873u);
  EXPECT_EQ(s.gc_page_copies, 26002u);
  EXPECT_EQ(s.gc_retained_copies, 0u);
  EXPECT_EQ(s.gc_erases, 2606u);
  EXPECT_EQ(s.forced_releases, 0u);
  EXPECT_EQ(ftl.FreeBlockCount(), 3u);
  EXPECT_EQ(ftl.ValidPageCount(), 1648u);
  EXPECT_EQ(ftl.RetainedPageCount(), 0u);
  EXPECT_EQ(ftl.Wear().min_erases, 17u);
  EXPECT_EQ(ftl.Wear().max_erases, 23u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(GcPolicyParityTest, DelayedDeletionMatchesMonolithGolden) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Seconds(2);
  PageFtl ftl(cfg);
  RunHighUtilWorkload(ftl);

  const FtlStats& s = ftl.Stats();
  EXPECT_EQ(s.host_writes, 17671u);
  EXPECT_EQ(s.host_trims, 1753u);
  EXPECT_EQ(s.host_reads, 1789u);
  EXPECT_EQ(s.gc_invocations, 4571u);
  EXPECT_EQ(s.gc_page_copies, 221479u);
  EXPECT_EQ(s.gc_retained_copies, 38798u);
  EXPECT_EQ(s.gc_erases, 14822u);
  EXPECT_EQ(s.retained_released, 0u);
  EXPECT_EQ(s.queue_evictions, 0u);
  EXPECT_EQ(s.forced_releases, 15680u);
  EXPECT_EQ(ftl.FreeBlockCount(), 3u);
  EXPECT_EQ(ftl.RecoveryQueueSize(), 343u);
  EXPECT_EQ(ftl.ValidPageCount(), 1648u);
  EXPECT_EQ(ftl.RetainedPageCount(), 343u);
  EXPECT_EQ(ftl.Wear().min_erases, 93u);
  EXPECT_EQ(ftl.Wear().max_erases, 133u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(GcPolicyParityTest, ModerateUtilShortWindowMatchesMonolithGolden) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Milliseconds(500);
  PageFtl ftl(cfg);

  const Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n * 7 / 10; ++lba) {
    ftl.WritePage(lba, {lba, {}}, 0);
  }
  std::uint64_t seed = 0xBEEF;
  SimTime t = Seconds(1);
  for (int i = 0; i < 12000; ++i) {
    Lba lba = Lcg(seed) % n;
    std::uint64_t op = Lcg(seed) % 10;
    t += Milliseconds(1);
    if (op < 7) {
      ftl.WritePage(lba, {2000000 + static_cast<std::uint64_t>(i), {}}, t);
    } else if (op < 8) {
      ftl.TrimPage(lba, t);
    } else {
      ftl.ReadPage(lba, t);
    }
  }

  const FtlStats& s = ftl.Stats();
  EXPECT_EQ(s.host_writes, 9706u);
  EXPECT_EQ(s.host_trims, 1020u);
  EXPECT_EQ(s.host_reads, 1981u);
  EXPECT_EQ(s.gc_invocations, 1878u);
  EXPECT_EQ(s.gc_page_copies, 63118u);
  EXPECT_EQ(s.gc_retained_copies, 11605u);
  EXPECT_EQ(s.gc_erases, 4427u);
  EXPECT_EQ(s.retained_released, 7738u);
  EXPECT_EQ(s.queue_evictions, 0u);
  EXPECT_EQ(s.forced_releases, 0u);
  EXPECT_EQ(ftl.FreeBlockCount(), 3u);
  EXPECT_EQ(ftl.RecoveryQueueSize(), 359u);
  EXPECT_EQ(ftl.ValidPageCount(), 1609u);
  EXPECT_EQ(ftl.RetainedPageCount(), 359u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(GcPolicyParityTest, InjectedGreedyEqualsConfiguredDefault) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Seconds(2);

  PageFtl by_config(cfg);
  RunHighUtilWorkload(by_config);

  PageFtl by_injection(cfg);
  by_injection.SetVictimPolicy(std::make_unique<GreedyVictimPolicy>());
  by_injection.SetAllocationPolicy(std::make_unique<StripedAllocationPolicy>());
  RunHighUtilWorkload(by_injection);

  EXPECT_EQ(by_config.Stats().gc_page_copies,
            by_injection.Stats().gc_page_copies);
  EXPECT_EQ(by_config.Stats().gc_erases, by_injection.Stats().gc_erases);
  EXPECT_EQ(by_config.Stats().gc_invocations,
            by_injection.Stats().gc_invocations);
  EXPECT_EQ(by_config.Wear().max_erases, by_injection.Wear().max_erases);
}

TEST(GcPolicyTest, PolicyAccessorsReportConfiguredNames) {
  FtlConfig cfg = MediumConfig();
  PageFtl ftl(cfg);
  EXPECT_STREQ(ftl.Allocation().Name(), "striped");
  EXPECT_STREQ(ftl.Victim().Name(), "greedy");

  cfg.victim_policy = VictimPolicyKind::kCostBenefit;
  PageFtl cb(cfg);
  EXPECT_STREQ(cb.Victim().Name(), "cost-benefit");
}

TEST(GcPolicyTest, CostBenefitSustainsWorkloadWithConsistentState) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = true;
  cfg.retention_window = Seconds(2);
  cfg.victim_policy = VictimPolicyKind::kCostBenefit;
  PageFtl ftl(cfg);
  RunHighUtilWorkload(ftl);

  const FtlStats& s = ftl.Stats();
  // Same host-visible traffic; only the reclamation choices may differ.
  EXPECT_EQ(s.host_writes, 17671u);
  EXPECT_EQ(s.host_trims, 1753u);
  EXPECT_GT(s.gc_erases, 0u);
  EXPECT_GT(s.gc_page_copies, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(GcPolicyTest, CostBenefitPrefersColderBlockNearTie) {
  // Two candidates with equal utilization: cost-benefit must take the one
  // with fewer erases (greedy would too, via its tie-break, but here the
  // coldness term does the work even when utilizations differ slightly).
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = false;
  PageFtl ftl(cfg);
  // Burn wear into the early blocks: fill and fully invalidate repeatedly.
  const Lba n = ftl.ExportedLbas();
  for (int round = 0; round < 3; ++round) {
    for (Lba lba = 0; lba < n / 2; ++lba) {
      ftl.WritePage(lba, {static_cast<std::uint64_t>(round), {}}, 0);
    }
  }
  ftl.SetVictimPolicy(std::make_unique<CostBenefitVictimPolicy>());
  // Let GC run under pressure; the device must stay consistent.
  for (Lba lba = 0; lba < n / 2; ++lba) {
    ASSERT_EQ(ftl.WritePage(lba, {99, {}}, 0).status, FtlStatus::kOk);
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

}  // namespace
}  // namespace insider::ftl
