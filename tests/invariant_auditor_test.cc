// Seeded-corruption tests for the cross-layer invariant auditor.
//
// An auditor that only ever passes on healthy devices is untestable, so each
// test here uses the FtlStateTamperer backdoor to plant exactly one
// inconsistency from a known violation class and asserts the auditor reports
// that class: stale L2P mapping, dangling recovery-queue backup (both a
// rogue NAND erase and an out-of-window entry), per-block valid-count drift,
// and a bad-block table that disagrees with NAND reality.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "ftl/invariant_auditor.h"
#include "ftl/page_ftl.h"
#include "ftl/state_tamperer.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

using Kind = InvariantViolation::Kind;

FtlConfig SmallConfig() {
  FtlConfig c;
  c.geometry = nand::TestGeometry();  // 2x2 chips, 16 blocks/chip, 8 pp/b
  c.latency = nand::LatencyModel::Zero();
  c.delayed_deletion = true;
  c.retention_window = Seconds(10);
  c.exported_fraction = 0.75;
  return c;
}

/// Seeded mixed workload: writes, overwrites, and the occasional trim, with
/// enough churn to trigger foreground GC and queue releases.
SimTime Churn(PageFtl& ftl, std::uint64_t seed, int ops) {
  Rng rng(seed);
  SimTime now = Seconds(1);
  const Lba span = ftl.ExportedLbas() / 4;  // hot range forces overwrites
  for (int i = 0; i < ops; ++i) {
    Lba lba = rng.Below(span);
    if (rng.Below(10) == 0) {
      ftl.TrimPage(lba, now);
    } else {
      ftl.WritePage(lba, {static_cast<std::uint64_t>(i) + 1, {}}, now);
    }
    now += Milliseconds(3) + rng.BelowTime(Milliseconds(5));
  }
  return now;
}

TEST(InvariantAuditorTest, HealthyChurnAuditsClean) {
  PageFtl ftl(SmallConfig());
  Churn(ftl, 0xA5A5, 4000);
  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_TRUE(report.ok()) << report.Diff();
  EXPECT_GT(report.checks, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_TRUE(report.Diff().empty());
}

TEST(InvariantAuditorTest, HealthyRollbackAndRebuildAuditClean) {
  PageFtl ftl(SmallConfig());
  SimTime now = Churn(ftl, 0xBEEF, 3000);

  ftl.SetReadOnly(true);
  ftl.RollBack(now);
  EXPECT_TRUE(InvariantAuditor::Audit(ftl).ok())
      << InvariantAuditor::Audit(ftl).Diff();

  ftl.SetReadOnly(false);
  (void)ftl.RebuildFromNand(now);
  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_TRUE(report.ok()) << report.Diff();
}

// Violation class 1 — stale L2P: the mapping table points somewhere the page
// states / reverse map / OOB tags do not corroborate.
TEST(InvariantAuditorTest, DetectsStaleL2pMapping) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(6, {2, {}}, Seconds(1)).ok());
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  // Point LBA 5 at LBA 6's physical page: state says Valid but the reverse
  // map and the page's OOB tag both name LBA 6.
  FtlStateTamperer(ftl).RemapLba(5, *ftl.Lookup(6));

  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kStaleMapping)) << report.Diff();
}

// Violation class 2a — dangling backup: a recovery-queue entry whose guarded
// physical page was erased behind the FTL's back. Rollback would "restore"
// vanished data.
TEST(InvariantAuditorTest, DetectsDanglingBackupAfterRogueErase) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {111, {}}, Seconds(1)).ok());
  nand::Ppa old_ppa = *ftl.Lookup(5);
  ASSERT_TRUE(ftl.WritePage(5, {222, {}}, Seconds(2)).ok());  // enqueues backup
  ASSERT_GT(ftl.RecoveryQueueSize(), 0u);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).EraseNandBlockUnder(old_ppa);

  // The rogue erase can also strand sibling valid pages in the same block,
  // so allow a generous cap and look specifically for the queue violation.
  AuditReport report = InvariantAuditor::Audit(ftl, /*max_violations=*/256);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kDanglingBackup)) << report.Diff();
}

// Violation class 2b — out-of-window backup: the queue front is older than
// the last release horizon, i.e. an entry that should have been released is
// still guarding a page.
TEST(InvariantAuditorTest, DetectsOutOfWindowBackup) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {111, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(5, {222, {}}, Seconds(2)).ok());
  ASSERT_GT(ftl.RecoveryQueueSize(), 0u);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).FastForwardReleaseHorizon(Seconds(100));

  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kDanglingBackup)) << report.Diff();
}

// Violation class 3 — counter drift: a per-block occupancy counter disagrees
// with what the page states imply.
TEST(InvariantAuditorTest, DetectsValidCountDrift) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  nand::Ppa ppa = *ftl.Lookup(5);
  std::uint32_t block_id =
      ftl.Nand().Decoder().BlockIdOf(ppa);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).BumpBlockValidCounter(block_id, +1);

  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kCounterDrift)) << report.Diff();
}

// Violation class 4 — bad-block mismatch: the health table says Retired but
// NAND still holds the block's live data (no evacuation happened).
TEST(InvariantAuditorTest, DetectsBadBlockMismatch) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  nand::Ppa ppa = *ftl.Lookup(5);
  std::uint32_t block_id =
      ftl.Nand().Decoder().BlockIdOf(ppa);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).MarkRetiredWithoutEvacuation(block_id);

  AuditReport report = InvariantAuditor::Audit(ftl, /*max_violations=*/64);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kBadBlockMismatch)) << report.Diff();
}

// Versioning enabled (a protected range with archived history) must still
// audit clean — the V1–V4 store cross-checks pass on a healthy device.
// Violation class 6 — allocator mismatch: a chip's cached ready bit says
// the opposite of what its frontier and free pool say, so NextChip would
// skip a chip that can allocate (or pick one that cannot).
TEST(InvariantAuditorTest, DetectsFlippedChipReadyBit) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).FlipChipReadyBit(1);

  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kAllocatorMismatch)) << report.Diff();
  EXPECT_NE(report.Diff().find("ready bit of chip 1"), std::string::npos)
      << report.Diff();
  EXPECT_NE(ftl.CheckInvariants().find("allocator-mismatch"),
            std::string::npos);

  // Flipping it back restores agreement.
  FtlStateTamperer(ftl).FlipChipReadyBit(1);
  EXPECT_TRUE(InvariantAuditor::Audit(ftl).ok());
}

TEST(InvariantAuditorTest, HealthyVersioningAuditsClean) {
  FtlConfig cfg = SmallConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 32, 8, Seconds(300)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  SimTime now = Churn(ftl, 0xC0DE, 4000);
  ftl.ReleaseExpired(now + Seconds(30));  // age survivors into the store
  ASSERT_GT(ftl.ArchivedPageCount(), 0u);

  AuditReport report = InvariantAuditor::Audit(ftl);
  EXPECT_TRUE(report.ok()) << report.Diff();

  ftl.RollBackRange(0, 32, now - Seconds(5), now + Seconds(40));
  report = InvariantAuditor::Audit(ftl);
  EXPECT_TRUE(report.ok()) << report.Diff();
}

// Violation class 5 — version-store mismatch: a page flipped to Archived
// (counters kept consistent) that no version record names.
TEST(InvariantAuditorTest, DetectsOrphanArchivedPage) {
  FtlConfig cfg = SmallConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 32, 8, Seconds(300)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  // A released backup of an *unprotected* LBA leaves a programmed page the
  // FTL freed — the perfect orphan: flipping it to Archived creates a page
  // the version store cannot account for.
  ASSERT_TRUE(ftl.WritePage(40, {1, {}}, Seconds(1)).ok());
  nand::Ppa victim = *ftl.Lookup(40);
  ASSERT_TRUE(ftl.WritePage(40, {2, {}}, Seconds(2)).ok());
  ftl.ReleaseExpired(Seconds(20));
  ASSERT_EQ(ftl.StateOf(victim), PageState::kInvalid);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).OrphanArchivedPage(victim);

  AuditReport report = InvariantAuditor::Audit(ftl, /*max_violations=*/64);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(Kind::kVersionStoreMismatch)) << report.Diff();
}

// Violation class 5, reverse direction: a version record naming a page that
// is no longer Archived (the page was freed behind the store's back).
TEST(InvariantAuditorTest, DetectsRecordNamingNonArchivedPage) {
  FtlConfig cfg = SmallConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 32, 8, Seconds(300)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  nand::Ppa archived = *ftl.Lookup(5);
  ASSERT_TRUE(ftl.WritePage(5, {2, {}}, Seconds(2)).ok());
  ftl.ReleaseExpired(Seconds(20));
  ASSERT_EQ(ftl.StateOf(archived), PageState::kArchived);
  ASSERT_TRUE(InvariantAuditor::Audit(ftl).ok());

  FtlStateTamperer(ftl).UnarchivePage(archived);

  AuditReport report = InvariantAuditor::Audit(ftl, /*max_violations=*/64);
  EXPECT_FALSE(report.ok());
  for (const InvariantViolation& v : report.violations) {
    EXPECT_EQ(v.kind, Kind::kVersionStoreMismatch) << report.Diff();
  }
}

TEST(InvariantAuditorTest, DiffNamesKindLocationAndBothValues) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  nand::Ppa ppa = *ftl.Lookup(5);
  FtlStateTamperer(ftl).BumpBlockValidCounter(
      ftl.Nand().Decoder().BlockIdOf(ppa), +3);

  AuditReport report = InvariantAuditor::Audit(ftl);
  ASSERT_FALSE(report.ok());
  std::string diff = report.Diff();
  EXPECT_NE(diff.find("counter-drift"), std::string::npos) << diff;
  EXPECT_NE(diff.find("expected"), std::string::npos) << diff;
  EXPECT_NE(diff.find("actual"), std::string::npos) << diff;
}

TEST(InvariantAuditorTest, ReportRespectsViolationCap) {
  PageFtl ftl(SmallConfig());
  for (Lba lba = 0; lba < 16; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, {lba + 1, {}}, Seconds(1)).ok());
  }
  // Erase two whole blocks out from under the mapping: plenty of violations.
  FtlStateTamperer tamper(ftl);
  tamper.EraseNandBlockUnder(*ftl.Lookup(0));
  tamper.EraseNandBlockUnder(*ftl.Lookup(15));

  AuditReport report = InvariantAuditor::Audit(ftl, /*max_violations=*/2);
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_TRUE(report.truncated);
}

TEST(InvariantAuditorTest, CheckInvariantsDescribesFirstViolation) {
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  EXPECT_EQ(ftl.CheckInvariants(), "");

  FtlStateTamperer(ftl).RemapLba(5, *ftl.Lookup(5) + 1);

  std::string msg = ftl.CheckInvariants();
  EXPECT_FALSE(msg.empty());
  EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
}

// End-to-end proof of the INSIDER_AUDIT hook: in an audited build, the next
// mutating entry point after a planted corruption must abort with the
// structured diff on stderr. Skipped when the hooks are compiled out.
TEST(InvariantAuditorDeathTest, AuditedBuildAbortsWithStructuredDiff) {
  if (!PageFtl::AuditHooksEnabled()) {
    GTEST_SKIP() << "built without -DINSIDER_AUDIT=ON";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PageFtl ftl(SmallConfig());
  ASSERT_TRUE(ftl.WritePage(5, {1, {}}, Seconds(1)).ok());
  nand::Ppa ppa = *ftl.Lookup(5);
  FtlStateTamperer(ftl).BumpBlockValidCounter(
      ftl.Nand().Decoder().BlockIdOf(ppa), +1);
  EXPECT_DEATH(ftl.WritePage(6, {2, {}}, Seconds(2)),
               "INSIDER_AUDIT failure.*counter-drift");
}

}  // namespace
}  // namespace insider::ftl
