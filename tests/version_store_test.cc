// Version store: direct unit coverage of the chain bookkeeping (pruning,
// eviction, relocation, media loss) plus FTL-integration coverage of the
// archive path — aged ring backups of protected LBAs become kArchived pages
// named by one record each, selective rollback mines
// them, and devices without protected ranges stay stat-for-stat identical
// to the seed behavior.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ftl/page_ftl.h"
#include "nand/geometry.h"
#include "obs/metrics.h"
#include "version/range_policy.h"
#include "version/version_store.h"

namespace insider::version {
namespace {

std::shared_ptr<const RangePolicyTable> MakeTable(const RangePolicy& policy) {
  auto table = std::make_shared<RangePolicyTable>();
  EXPECT_TRUE(table->Add(policy));
  return table;
}

// Collects every page the store hands back for reclamation.
struct ReleaseLog {
  std::vector<nand::Ppa> pages;
  VersionStore::ReleaseFn Fn() {
    return [this](nand::Ppa p) { pages.push_back(p); };
  }
};

TEST(VersionStoreTest, PrunesByCountWhenWindowExpired) {
  VersionStore store(MakeTable({0, 64, 2, 0}));  // keep 2, no time grace
  ReleaseLog rel;
  store.Archive(5, 10, Seconds(1), false, Seconds(1), rel.Fn());
  store.Archive(5, 20, Seconds(2), false, Seconds(2), rel.Fn());
  EXPECT_TRUE(rel.pages.empty());

  // Third version: the chain exceeds keep_versions, the oldest page frees.
  store.Archive(5, 30, Seconds(3), false, Seconds(3), rel.Fn());
  ASSERT_EQ(rel.pages.size(), 1u);
  EXPECT_EQ(rel.pages[0], nand::Ppa{10});
  EXPECT_EQ(store.VersionCount(), 2u);
  ASSERT_NE(store.ChainOf(5), nullptr);
  EXPECT_EQ(store.ChainOf(5)->front().written_at, Seconds(2));
}

TEST(VersionStoreTest, KeepWindowShieldsVersionsUntilTheyAge) {
  VersionStore store(MakeTable({0, 64, 1, Seconds(5)}));
  ReleaseLog rel;
  store.Archive(5, 10, Seconds(1), false, Seconds(2), rel.Fn());
  store.Archive(5, 20, Seconds(2), false, Seconds(2), rel.Fn());
  // Both are younger than the 5 s grace window: nothing prunable yet.
  EXPECT_TRUE(rel.pages.empty());
  EXPECT_EQ(store.VersionCount(), 2u);

  store.PruneExpired(Seconds(4), rel.Fn());  // front not yet 5 s old
  EXPECT_TRUE(rel.pages.empty());

  store.PruneExpired(Seconds(10), rel.Fn());  // front aged out, count > keep
  ASSERT_EQ(rel.pages.size(), 1u);
  EXPECT_EQ(rel.pages[0], nand::Ppa{10});
  EXPECT_EQ(store.VersionCount(), 1u);  // keep_versions floor holds
}

TEST(VersionStoreTest, RecordPrunedOnArrivalSuppressesItsOwnRelease) {
  VersionStore store(MakeTable({0, 64, 1, 0}));
  ReleaseLog rel;
  store.Archive(5, 10, Seconds(9), false, Seconds(9), rel.Fn());
  // A strictly older version arrives late (ring drained out of order across
  // LBAs). It sorts to the chain front and the keep-1 policy prunes it
  // immediately — but its page was never marked archived, so the release
  // callback must NOT fire for it; returning false tells the FTL to
  // reclaim it.
  EXPECT_FALSE(store.Archive(5, 20, Seconds(2), false, Seconds(9), rel.Fn()));
  EXPECT_TRUE(rel.pages.empty());
  EXPECT_EQ(store.VersionCount(), 1u);
  EXPECT_EQ(store.PageCount(), 1u);
  ASSERT_NE(store.ChainOf(5), nullptr);
  EXPECT_EQ(store.ChainOf(5)->front().ppa, nand::Ppa{10});
}

TEST(VersionStoreTest, EvictOldestTakesGloballyOldestTiesToLowestLba) {
  VersionStore store(MakeTable({0, 64, 8, 0}));
  ReleaseLog rel;
  store.Archive(7, 70, Seconds(1), false, Seconds(1), rel.Fn());
  store.Archive(3, 30, Seconds(1), false, Seconds(1), rel.Fn());
  store.Archive(5, 50, Seconds(2), false, Seconds(2), rel.Fn());

  EXPECT_EQ(store.EvictOldest(1, rel.Fn()), 1u);
  ASSERT_EQ(rel.pages.size(), 1u);
  EXPECT_EQ(rel.pages[0], nand::Ppa{30});  // oldest time, lowest LBA wins tie

  EXPECT_EQ(store.EvictOldest(8, rel.Fn()), 2u);  // drains the rest
  EXPECT_EQ(store.EvictOldest(8, rel.Fn()), 0u);  // empty store: no progress
  EXPECT_EQ(store.VersionCount(), 0u);
  EXPECT_EQ(store.PageCount(), 0u);
}

TEST(VersionStoreTest, RelocateFollowsGcPageMoves) {
  VersionStore store(MakeTable({0, 64, 8, 0}));
  ReleaseLog rel;
  store.Archive(5, 10, Seconds(1), false, Seconds(1), rel.Fn());

  EXPECT_TRUE(store.Relocate(5, 10, 99));
  ASSERT_NE(store.ChainOf(5), nullptr);
  EXPECT_EQ(store.ChainOf(5)->front().ppa, nand::Ppa{99});
  EXPECT_FALSE(store.Relocate(5, 10, 50));  // stale source: no record there
  EXPECT_FALSE(store.Relocate(6, 99, 50));  // another LBA's chain
}

TEST(VersionStoreTest, DropPpaDropsOnlyThatPagesRecord) {
  VersionStore store(MakeTable({0, 64, 8, 0}));
  ReleaseLog rel;
  // LBAs 3 and 9 hold the same content on two pages; LBA 3 has a second
  // version on a third page.
  store.Archive(3, 100, Seconds(1), false, Seconds(1), rel.Fn());
  store.Archive(9, 200, Seconds(2), false, Seconds(2), rel.Fn());
  store.Archive(3, 300, Seconds(3), false, Seconds(3), rel.Fn());

  // Page 100 dies to media errors: only the record naming it goes.
  EXPECT_TRUE(store.DropPpa(3, 100));
  EXPECT_EQ(store.VersionCount(), 2u);
  EXPECT_EQ(store.PageCount(), 2u);
  ASSERT_NE(store.ChainOf(9), nullptr);
  EXPECT_EQ(store.ChainOf(9)->front().ppa, nand::Ppa{200});
  ASSERT_NE(store.ChainOf(3), nullptr);
  ASSERT_EQ(store.ChainOf(3)->size(), 1u);
  EXPECT_EQ(store.ChainOf(3)->front().ppa, nand::Ppa{300});
  EXPECT_FALSE(store.DropPpa(3, 100));  // already gone
  EXPECT_FALSE(store.DropPpa(9, 300));  // another LBA's page
  EXPECT_TRUE(rel.pages.empty());
}

TEST(VersionStoreTest, TombstoneRecordsCarryNoObject) {
  VersionStore store(MakeTable({0, 64, 8, 0}));
  ReleaseLog rel;
  // Page reclaimable immediately.
  EXPECT_FALSE(store.Archive(5, 10, Seconds(2), /*tombstone=*/true,
                             Seconds(2), rel.Fn()));
  EXPECT_EQ(store.VersionCount(), 1u);
  EXPECT_EQ(store.PageCount(), 0u);
  ASSERT_NE(store.ChainOf(5), nullptr);
  EXPECT_TRUE(store.ChainOf(5)->front().tombstone);
  EXPECT_EQ(store.ChainOf(5)->front().ppa, nand::kInvalidPpa);
  EXPECT_TRUE(rel.pages.empty());
}

}  // namespace
}  // namespace insider::version

// ---------------------------------------------------------------------------
// FTL integration: the archive path end to end.

namespace insider::ftl {
namespace {

FtlConfig ProtectedConfig(Lba begin, Lba end, std::uint32_t keep_versions,
                          SimTime keep_window) {
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  auto table = std::make_shared<version::RangePolicyTable>();
  EXPECT_TRUE(table->Add({begin, end, keep_versions, keep_window}));
  cfg.range_policies = table;
  return cfg;
}

TEST(VersionStoreFtlTest, AgedBackupOfProtectedLbaIsArchivedNotFreed) {
  PageFtl ftl(ProtectedConfig(0, 64, 8, Seconds(300)));
  ASSERT_TRUE(ftl.WritePage(3, {100, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(3, {200, {}}, Seconds(2)).ok());
  ASSERT_EQ(ftl.RecoveryQueueSize(), 1u);

  ftl.ReleaseExpired(Seconds(20));  // horizon t-10 s passes the 1 s backup
  EXPECT_EQ(ftl.RecoveryQueueSize(), 0u);
  EXPECT_EQ(ftl.ArchivedPageCount(), 1u);
  EXPECT_EQ(ftl.RetainedPageCount(), 0u);
  EXPECT_EQ(ftl.Store().VersionCount(), 1u);
  EXPECT_EQ(ftl.Store().PageCount(), 1u);
  EXPECT_EQ(ftl.Stats().archived_versions, 1u);

  ASSERT_NE(ftl.Store().ChainOf(3), nullptr);
  const nand::Ppa ppa = ftl.Store().ChainOf(3)->front().ppa;
  EXPECT_EQ(ftl.StateOf(ppa), PageState::kArchived);
  EXPECT_EQ(ftl.Nand().PeekPage(ppa)->stamp, 100u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(VersionStoreFtlTest, IdenticalContentAcrossLbasPinsOnePagePerVersion) {
  PageFtl ftl(ProtectedConfig(0, 64, 8, Seconds(300)));
  ASSERT_TRUE(ftl.WritePage(1, {42, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(2, {42, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(1, {43, {}}, Seconds(2)).ok());
  ASSERT_TRUE(ftl.WritePage(2, {44, {}}, Seconds(2)).ok());

  ftl.ReleaseExpired(Seconds(20));
  EXPECT_EQ(ftl.Store().VersionCount(), 2u);
  EXPECT_EQ(ftl.Store().PageCount(), 2u);
  EXPECT_EQ(ftl.ArchivedPageCount(), 2u);
  ASSERT_NE(ftl.Store().ChainOf(1), nullptr);
  ASSERT_NE(ftl.Store().ChainOf(2), nullptr);
  const nand::Ppa p1 = ftl.Store().ChainOf(1)->front().ppa;
  const nand::Ppa p2 = ftl.Store().ChainOf(2)->front().ppa;
  EXPECT_NE(p1, p2);
  EXPECT_EQ(ftl.StateOf(p1), PageState::kArchived);
  EXPECT_EQ(ftl.StateOf(p2), PageState::kArchived);
  // Two pages pinned, two 17-B records in DRAM.
  const std::uint64_t page_size = ftl.Config().geometry.page_size;
  EXPECT_EQ(ftl.Store().StoreBytes(page_size), 2 * page_size);
  EXPECT_EQ(ftl.Store().DramBytes(),
            2 * version::VersionStore::kPackedRecordBytes);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(VersionStoreFtlTest, RollBackRangeReachesSuccessivelyOlderVersions) {
  PageFtl ftl(ProtectedConfig(0, 64, 8, Seconds(300)));
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(5, {2, {}}, Seconds(5)).ok());
  ASSERT_TRUE(ftl.WritePage(5, {3, {}}, Seconds(9)).ok());
  ftl.ReleaseExpired(Seconds(25));  // both old versions age into the store
  ASSERT_EQ(ftl.Store().VersionCount(), 2u);

  // Restore point between v2 and v3: the archived v2 payload comes back.
  RangeRollbackReport r1 = ftl.RollBackRange(5, 6, Seconds(6), Seconds(30));
  EXPECT_EQ(r1.restored, 1u);
  EXPECT_EQ(r1.failed, 0u);
  EXPECT_EQ(ftl.ReadPage(5, Seconds(30)).data.stamp, 2u);
  EXPECT_EQ(ftl.CheckInvariants(), "");

  // And the store still holds v1, so an even older point keeps working —
  // selective rollback consumes nothing.
  RangeRollbackReport r2 = ftl.RollBackRange(5, 6, Seconds(2), Seconds(31));
  EXPECT_EQ(r2.restored, 1u);
  EXPECT_EQ(ftl.ReadPage(5, Seconds(31)).data.stamp, 1u);
  EXPECT_EQ(ftl.Stats().range_rollbacks, 2u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(VersionStoreFtlTest, RollBackRangeReproducesATrim) {
  PageFtl ftl(ProtectedConfig(0, 64, 8, Seconds(300)));
  ASSERT_TRUE(ftl.WritePage(7, {5, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.TrimPage(7, Seconds(2)).ok());
  ASSERT_TRUE(ftl.WritePage(7, {9, {}}, Seconds(20)).ok());
  ftl.ReleaseExpired(Seconds(30));  // v1 data + the trim tombstone archive

  ASSERT_NE(ftl.Store().ChainOf(7), nullptr);
  ASSERT_EQ(ftl.Store().ChainOf(7)->size(), 2u);
  EXPECT_TRUE(ftl.Store().ChainOf(7)->back().tombstone);

  // At t=5 s the LBA was trimmed: rolling back there must unmap it.
  RangeRollbackReport r = ftl.RollBackRange(7, 8, Seconds(5), Seconds(31));
  EXPECT_EQ(r.unmapped, 1u);
  EXPECT_EQ(r.restored, 0u);
  EXPECT_EQ(ftl.ReadPage(7, Seconds(31)).status, FtlStatus::kUnmapped);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(VersionStoreFtlTest, StandardMetricsSnapshotCoversVersioning) {
  PageFtl ftl(ProtectedConfig(0, 64, 8, Seconds(300)));
  obs::MetricsRegistry registry;
  ftl.AttachObs(nullptr, &registry);

  ASSERT_TRUE(ftl.WritePage(3, {1, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(3, {2, {}}, Seconds(2)).ok());
  ftl.ReleaseExpired(Seconds(20));
  ftl.RollBackRange(0, 64, Seconds(1), Seconds(21));

  const std::string json = registry.SnapshotJson();
  for (const char* name :
       {"version.archived_total", "version.store_bytes", "version.dram_bytes",
        "version.versions_retained", "version.range0_versions",
        "version.restore_age_us"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// The acceptance bar for everything outside a protected range: with the
// store enabled but the workload's footprint unprotected, every counter in
// FtlStats must match a device with no policies at all.
TEST(VersionStoreFtlTest, UnprotectedRangesKeepSeedBehaviorStatForStat) {
  FtlConfig plain;
  plain.geometry = nand::TestGeometry();
  plain.latency = nand::LatencyModel::Zero();
  FtlConfig versioned = ProtectedConfig(400, 440, 8, Seconds(300));

  PageFtl a(plain);
  PageFtl b(versioned);
  ASSERT_TRUE(b.Store().Enabled());

  for (PageFtl* ftl : {&a, &b}) {
    SimTime t = Seconds(1);
    for (std::uint64_t i = 0; i < 900; ++i) {
      Lba lba = i % 64;  // well clear of the protected [400, 440)
      if (i % 17 == 0) {
        ftl->TrimPage(lba, t);
      } else {
        ASSERT_TRUE(ftl->WritePage(lba, {1000 + i, {}}, t).ok());
      }
      t += Microseconds(50'000);
    }
    ftl->ReleaseExpired(t + Seconds(30));
    EXPECT_EQ(ftl->CheckInvariants(), "");
  }

  EXPECT_TRUE(a.Stats() == b.Stats());
  EXPECT_EQ(b.ArchivedPageCount(), 0u);
  EXPECT_EQ(b.Store().VersionCount(), 0u);
}

}  // namespace
}  // namespace insider::ftl
