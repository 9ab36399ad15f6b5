// Model-based property test of the paper's central recovery claim: after an
// attack burst confined to the retention window, RollBack() restores the
// device to *exactly* the logical state it had at `detect_time - window` —
// every mapping, every stamp, including deletions.
//
// A reference model tracks, per LBA, the full history of writes and trims;
// the expected post-rollback state is the model evaluated at the horizon.
// Preconditions for exactness (all asserted): no backups forced out by
// space pressure, no queue-capacity evictions, and the burst shorter than
// the retention window (so no backup expires before the alarm).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

struct ModelState {
  std::vector<std::int64_t> stamp;  ///< -1 = unmapped
  explicit ModelState(Lba n) : stamp(n, -1) {}
};

class RollbackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RollbackPropertyTest, RollbackEqualsModelAtHorizon) {
  Rng rng(GetParam() * 7919 + 3);
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();  // 512 physical pages
  cfg.latency = nand::LatencyModel::Zero();
  cfg.exported_fraction = 0.5;          // 256 LBAs, generous OP
  PageFtl ftl(cfg);
  Lba n = ftl.ExportedLbas();

  ModelState base(n);

  // --- Phase 1: arbitrary history, old enough to be fully released. ----
  SimTime t = 0;
  for (int op = 0; op < 400; ++op) {
    t += rng.BelowTime(10'000);
    Lba lba = rng.Below(n);
    if (rng.Chance(0.75)) {
      ASSERT_TRUE(
          ftl.WritePage(lba, {static_cast<std::uint64_t>(1000 + op), {}}, t)
              .ok());
      base.stamp[lba] = 1000 + op;
    } else if (base.stamp[lba] >= 0) {
      ASSERT_TRUE(ftl.TrimPage(lba, t).ok());
      base.stamp[lba] = -1;
    }
  }
  ASSERT_LT(t, Seconds(5));

  // Let every phase-1 backup expire.
  SimTime attack_begin = Seconds(30);
  ftl.ReleaseExpired(attack_begin);
  ASSERT_EQ(ftl.RecoveryQueueSize(), 0u);

  // --- Phase 2: the attack burst, confined to [30 s, 36 s]. ------------
  //
  // The expected post-rollback state per LBA is the value *before the
  // burst's first backup-creating operation* on it. A write to an unmapped
  // LBA creates no backup (there is no old version), so — exactly as in
  // the paper's design — such a write is not revertible until a later
  // overwrite/trim records it. `bottom` tracks that chain bottom.
  ModelState infected = base;
  ModelState bottom = base;
  std::vector<bool> has_backup(n, false);
  SimTime bt = attack_begin;
  for (int op = 0; op < 150; ++op) {
    bt += rng.BelowTime(40'000);  // burst spans < 6 s << 10 s window
    Lba lba = rng.Below(n);
    if (rng.Chance(0.8)) {
      ASSERT_TRUE(
          ftl.WritePage(lba, {static_cast<std::uint64_t>(900000 + op), {}},
                        bt)
              .ok());
      if (!has_backup[lba]) {
        if (infected.stamp[lba] >= 0) {
          bottom.stamp[lba] = infected.stamp[lba];
          has_backup[lba] = true;
        } else {
          bottom.stamp[lba] = 900000 + op;  // unrevertible fresh write
        }
      }
      infected.stamp[lba] = 900000 + op;
    } else if (infected.stamp[lba] >= 0) {
      ASSERT_TRUE(ftl.TrimPage(lba, bt).ok());
      if (!has_backup[lba]) {
        bottom.stamp[lba] = infected.stamp[lba];
        has_backup[lba] = true;
      }
      infected.stamp[lba] = -1;
    }
  }
  ASSERT_LT(bt, attack_begin + Seconds(10));
  ASSERT_EQ(ftl.Stats().forced_releases, 0u)
      << "space pressure would make recovery lossy; shrink the burst";
  ASSERT_EQ(ftl.Stats().queue_evictions, 0u);

  // Sanity: pre-rollback state matches the infected model.
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult r = ftl.ReadPage(lba, bt);
    if (infected.stamp[lba] < 0) {
      ASSERT_EQ(r.status, FtlStatus::kUnmapped) << "lba " << lba;
    } else {
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.data.stamp,
                static_cast<std::uint64_t>(infected.stamp[lba]));
    }
  }

  // --- Rollback to detect_time such that the horizon predates the burst.
  SimTime detect = attack_begin + Seconds(8);  // horizon = 28 s < burst
  RollbackReport report = ftl.RollBack(detect);
  EXPECT_GT(report.entries_reverted, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");

  // --- The device must now equal the chain-bottom model, exactly. ------
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult r = ftl.ReadPage(lba, detect);
    if (bottom.stamp[lba] < 0) {
      EXPECT_EQ(r.status, FtlStatus::kUnmapped)
          << "lba " << lba << " should be unmapped after rollback";
    } else {
      ASSERT_TRUE(r.ok()) << "lba " << lba;
      EXPECT_EQ(r.data.stamp, static_cast<std::uint64_t>(bottom.stamp[lba]))
          << "lba " << lba;
    }
  }
  // Every LBA that was mapped before the burst is byte-identical to its
  // pre-attack version (the paper's 0%-data-loss claim).
  for (Lba lba = 0; lba < n; ++lba) {
    if (base.stamp[lba] < 0) continue;
    EXPECT_EQ(bottom.stamp[lba], base.stamp[lba]) << "model self-check";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Device-fault robustness: the recovery promise must hold on degraded
// hardware. Each seed drives two devices through an identical history —
// device A on ideal media, device B with random program/erase faults and a
// power cut (RebuildFromNand) at a random point inside the attack burst.
// After both roll back, their logical states must be byte-equivalent: media
// faults are absorbed by write re-drive + block retirement, and the crash by
// the OOB rebuild of the mapping table and recovery queue.
//
// Trims inside the burst are replayed across the crash by their tombstone
// pages (FtlConfig::trim_tombstones): a trim that is the *final* state of an
// LBA at the power cut stays trimmed after the rebuild, which the
// pre-rollback equality check below verifies directly. Phase 1 stays
// write-only because the tombstone guarantee is scoped to the retention
// window — once a trim ages out, its tombstone is reclaimable garbage, and
// a crash after GC collects the tombstone but before it collects the stale
// data would resurrect the mapping.
class FaultPowerLossPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultPowerLossPropertyTest, RollbackAfterFaultsAndCrashMatchesBaseline) {
  Rng rng(GetParam() * 104729 + 17);

  FtlConfig clean_cfg;
  clean_cfg.geometry = nand::TestGeometry();  // 512 physical pages
  clean_cfg.latency = nand::LatencyModel::Zero();
  clean_cfg.exported_fraction = 0.5;  // 256 LBAs

  FtlConfig faulty_cfg = clean_cfg;
  faulty_cfg.errors.program_fail_prob = 5e-3;
  faulty_cfg.errors.erase_fail_prob = 2e-3;
  faulty_cfg.error_seed = GetParam();

  PageFtl clean(clean_cfg);
  PageFtl faulty(faulty_cfg);
  Lba n = clean.ExportedLbas();

  // Pre-generate the shared op sequence so device state never influences it.
  struct Op {
    SimTime t = 0;
    Lba lba = 0;
    bool is_write = true;
    std::uint64_t stamp = 0;
  };
  std::vector<Op> history;
  std::vector<bool> mapped(n, false);

  // Phase 1: write-only background history, done well before the window.
  SimTime t = 0;
  for (int op = 0; op < 300; ++op) {
    t += rng.BelowTime(9'000);
    Lba lba = rng.Below(n);
    history.push_back({t, lba, true, static_cast<std::uint64_t>(1000 + op)});
    mapped[lba] = true;
  }
  ASSERT_LT(t, Seconds(3));

  // Phase 2: attack burst confined to [30 s, 36 s), writes + trims.
  SimTime attack_begin = Seconds(30);
  SimTime bt = attack_begin;
  std::size_t burst_start = history.size();
  for (int op = 0; op < 150; ++op) {
    bt += rng.BelowTime(40'000);
    Lba lba = rng.Below(n);
    if (rng.Chance(0.8) || !mapped[lba]) {
      history.push_back(
          {bt, lba, true, static_cast<std::uint64_t>(900000 + op)});
      mapped[lba] = true;
    } else {
      history.push_back({bt, lba, false, 0});
      mapped[lba] = false;
    }
  }
  ASSERT_LT(bt, attack_begin + Seconds(6));

  // The power cut hits device B at a random op inside the burst.
  std::size_t crash_at = burst_start + 20 + rng.Below(110);
  ASSERT_LT(crash_at, history.size());

  bool crashed = false;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Op& op = history[i];
    if (i == burst_start) {
      // Let every phase-1 backup expire before the burst on both devices.
      clean.ReleaseExpired(attack_begin);
      faulty.ReleaseExpired(attack_begin);
      ASSERT_EQ(clean.RecoveryQueueSize(), 0u);
    }
    if (i == crash_at) {
      (void)faulty.RebuildFromNand(op.t);
      crashed = true;
    }
    if (op.is_write) {
      ASSERT_TRUE(clean.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
      ASSERT_TRUE(faulty.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
    } else {
      ASSERT_TRUE(clean.TrimPage(op.lba, op.t).ok()) << i;
      ASSERT_TRUE(faulty.TrimPage(op.lba, op.t).ok()) << i;
    }
  }
  ASSERT_TRUE(crashed);
  ASSERT_EQ(faulty.Stats().rebuilds, 1u);

  // Exactness preconditions, on both devices.
  for (const PageFtl* dev : {&clean, &faulty}) {
    ASSERT_EQ(dev->Stats().forced_releases, 0u);
    ASSERT_EQ(dev->Stats().queue_evictions, 0u);
    ASSERT_FALSE(dev->IsDegraded());
  }

  // Detect at 38 s: the 28 s horizon predates the whole burst.
  SimTime detect = attack_begin + Seconds(8);

  // Before any rollback, the rebuilt device must already agree with the
  // uncrashed one — in particular, burst trims that were the final state of
  // their LBA at the power cut were replayed from their tombstones, not
  // resurrected. (Reads age the retention window on both devices
  // identically, so this probe does not perturb the rollback below.)
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult a = clean.ReadPage(lba, detect);
    FtlResult b = faulty.ReadPage(lba, detect);
    ASSERT_EQ(a.status, b.status) << "pre-rollback lba " << lba;
    if (a.ok()) {
      ASSERT_EQ(a.data.stamp, b.data.stamp) << "pre-rollback lba " << lba;
    }
  }

  clean.RollBack(detect);
  faulty.RollBack(detect);
  EXPECT_EQ(clean.CheckInvariants(), "");
  EXPECT_EQ(faulty.CheckInvariants(), "");

  // Byte-equivalence with the no-fault, no-crash baseline.
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult a = clean.ReadPage(lba, detect);
    FtlResult b = faulty.ReadPage(lba, detect);
    ASSERT_EQ(a.status, b.status) << "lba " << lba;
    if (a.ok()) {
      ASSERT_EQ(a.data.stamp, b.data.stamp) << "lba " << lba;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPowerLossPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 101));

// ---------------------------------------------------------------------------
// Crash-anywhere with durable metadata (DESIGN.md §13): the same
// clean-vs-crashed twin equivalence as above, but with checkpoint + journal
// enabled so the crashed device takes the O(Δ) rebuild — and the crash
// instant rotates through the windows a metadata-aware adversary would aim
// for:
//
//   seed % 3 == 0  at a request boundary (the classic cut)
//   seed % 3 == 1  *inside* a checkpoint commit (torn checkpoint; the
//                  previous epoch must stay authoritative)
//   seed % 3 == 2  *inside* a journal-batch flush (torn journal page; the
//                  replayable tail truncates at the durable prefix)
//
// Seeds divisible by 5 additionally script a metadata program fail, so some
// devices reach the crash with a burned journal slot or an aborted
// checkpoint behind them. Whatever path the rebuild reports — fast or
// fallback — the rolled-back state must match the uncrashed twin exactly.
class CheckpointCrashPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointCrashPropertyTest, RollbackAfterTornMetadataMatchesBaseline) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 41);

  FtlConfig clean_cfg;
  clean_cfg.geometry = nand::TestGeometry();
  clean_cfg.latency = nand::LatencyModel::Zero();
  clean_cfg.exported_fraction = 0.5;
  clean_cfg.checkpoint.enabled = true;  // both twins lose 8 blocks to metadata

  FtlConfig faulty_cfg = clean_cfg;
  faulty_cfg.errors.program_fail_prob = 5e-3;
  faulty_cfg.errors.erase_fail_prob = 2e-3;
  faulty_cfg.error_seed = seed;
  if (seed % 5 == 0) faulty_cfg.fault_plan.FailMetaProgramAtOp(1);

  PageFtl clean(clean_cfg);
  PageFtl faulty(faulty_cfg);
  Lba n = clean.ExportedLbas();

  struct Op {
    SimTime t = 0;
    Lba lba = 0;
    bool is_write = true;
    std::uint64_t stamp = 0;
  };
  std::vector<Op> history;
  std::vector<bool> mapped(n, false);

  SimTime t = 0;
  for (int op = 0; op < 300; ++op) {
    t += rng.BelowTime(9'000);
    Lba lba = rng.Below(n);
    history.push_back({t, lba, true, static_cast<std::uint64_t>(1000 + op)});
    mapped[lba] = true;
  }
  ASSERT_LT(t, Seconds(3));

  SimTime attack_begin = Seconds(30);
  SimTime bt = attack_begin;
  std::size_t burst_start = history.size();
  for (int op = 0; op < 150; ++op) {
    bt += rng.BelowTime(40'000);
    Lba lba = rng.Below(n);
    if (rng.Chance(0.8) || !mapped[lba]) {
      history.push_back(
          {bt, lba, true, static_cast<std::uint64_t>(900000 + op)});
      mapped[lba] = true;
    } else {
      history.push_back({bt, lba, false, 0});
      mapped[lba] = false;
    }
  }
  ASSERT_LT(bt, attack_begin + Seconds(6));

  std::size_t crash_at = burst_start + 20 + rng.Below(110);
  ASSERT_LT(crash_at, history.size());

  bool crashed = false;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Op& op = history[i];
    if (i == burst_start) {
      clean.ReleaseExpired(attack_begin);
      faulty.ReleaseExpired(attack_begin);
      ASSERT_EQ(clean.RecoveryQueueSize(), 0u);
      // A committed (or, on meta-fault seeds, possibly aborted) checkpoint
      // right before the burst: the crash delta is the burst prefix.
      faulty.TakeCheckpoint(attack_begin);
    }
    if (i == crash_at) {
      // Park the device inside a metadata flush at the instant of death,
      // exactly as PowerLossInjector's tear windows do at host level.
      const std::uint64_t window = seed % 3;
      if (window != 0) {
        bool fired = false;
        const char* point =
            window == 1 ? "checkpoint.flush" : "journal.flush";
        faulty.Nand().SetPowerCutProbe([&fired, point](const char* at) {
          if (fired || std::strcmp(at, point) != 0) return false;
          fired = true;
          return true;
        });
        if (window == 1) {
          faulty.TakeCheckpoint(op.t);
        } else {
          faulty.FlushJournal(op.t);
        }
        faulty.Nand().SetPowerCutProbe(nullptr);
      }
      PageFtl::RebuildReport report = faulty.RebuildFromNand(op.t);
      ASSERT_TRUE(report.used_checkpoint || report.fallback_full_scan)
          << "rebuild must pick a path with checkpointing enabled";
      ASSERT_EQ(faulty.CheckInvariants(), "")
          << "immediately after the rebuild (fast=" << report.used_checkpoint
          << ")";
      crashed = true;
    }
    if (op.is_write) {
      ASSERT_TRUE(clean.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
      ASSERT_TRUE(faulty.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
    } else {
      ASSERT_TRUE(clean.TrimPage(op.lba, op.t).ok()) << i;
      ASSERT_TRUE(faulty.TrimPage(op.lba, op.t).ok()) << i;
    }
  }
  ASSERT_TRUE(crashed);
  ASSERT_EQ(faulty.Stats().rebuilds, 1u);
  ASSERT_EQ(faulty.Stats().rebuild_fast_path +
                faulty.Stats().rebuild_fallbacks,
            1u);

  for (const PageFtl* dev : {&clean, &faulty}) {
    ASSERT_EQ(dev->Stats().forced_releases, 0u);
    ASSERT_EQ(dev->Stats().queue_evictions, 0u);
    ASSERT_FALSE(dev->IsDegraded());
  }

  SimTime detect = attack_begin + Seconds(8);
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult a = clean.ReadPage(lba, detect);
    FtlResult b = faulty.ReadPage(lba, detect);
    ASSERT_EQ(a.status, b.status) << "pre-rollback lba " << lba;
    if (a.ok()) {
      ASSERT_EQ(a.data.stamp, b.data.stamp) << "pre-rollback lba " << lba;
    }
  }

  clean.RollBack(detect);
  faulty.RollBack(detect);
  EXPECT_EQ(clean.CheckInvariants(), "");
  EXPECT_EQ(faulty.CheckInvariants(), "");

  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult a = clean.ReadPage(lba, detect);
    FtlResult b = faulty.ReadPage(lba, detect);
    ASSERT_EQ(a.status, b.status) << "lba " << lba;
    if (a.ok()) {
      ASSERT_EQ(a.data.stamp, b.data.stamp) << "lba " << lba;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointCrashPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 101));

// ---------------------------------------------------------------------------
// Selective per-range rollback (src/version): a protected range rolls back
// to a restore point *older than the paper window* while the rest of the
// device keeps its latest state. Each seed drives two devices through an
// identical history — device A uninterrupted, device B power-cut once inside
// the attack burst and once right before recovery — and both must agree
// byte-for-byte with each other and with the reference model.
//
// Phase 1 stays write-only (the tombstone guarantee is window-scoped, as in
// the fault suite above). Stamps come from a small pool, so identical
// content recurs across protected LBAs (asserted); every archived version
// still keeps its own page, so the rebuilt chains equal the uncrashed ones
// record for record.
class SelectiveRollbackPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectiveRollbackPropertyTest, ProtectedRangeRestoresAcrossCrashes) {
  Rng rng(GetParam() * 104729 + 29);

  constexpr Lba kProtBegin = 0;
  constexpr Lba kProtEnd = 64;
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({kProtBegin, kProtEnd, /*keep_versions=*/8,
                          /*keep_window=*/Seconds(60)}));

  FtlConfig clean_cfg;
  clean_cfg.geometry = nand::TestGeometry();  // 512 physical pages
  clean_cfg.latency = nand::LatencyModel::Zero();
  clean_cfg.exported_fraction = 0.5;  // 256 LBAs
  clean_cfg.range_policies = table;

  FtlConfig faulty_cfg = clean_cfg;
  faulty_cfg.errors.program_fail_prob = 5e-3;
  faulty_cfg.errors.erase_fail_prob = 2e-3;
  faulty_cfg.error_seed = GetParam();

  PageFtl clean(clean_cfg);
  PageFtl faulty(faulty_cfg);
  Lba n = clean.ExportedLbas();
  ASSERT_GE(n, kProtEnd);

  struct Op {
    SimTime t = 0;
    Lba lba = 0;
    std::uint64_t stamp = 0;
  };
  constexpr std::uint64_t kStampPool = 6;  // distinct contents per phase
  std::vector<Op> history;
  std::vector<std::int64_t> at_restore(n, -1);  // model at the restore point
  std::vector<std::int64_t> latest(n, -1);      // model after the burst

  // Phase 1: write-only history; its final state is the restore target,
  // and its midpoint state a second, older one that only archived versions
  // can reach.
  SimTime t = 0;
  SimTime mid_point = 0;
  std::vector<std::int64_t> at_mid;  // model at the midpoint
  std::vector<bool> mid_archived(n, false);  // midpoint version overwritten
  for (int op = 0; op < 300; ++op) {
    t += rng.BelowTime(9'000);
    Lba lba = rng.Below(n);
    if (op > 149 && at_mid[lba] >= 0) mid_archived[lba] = true;
    const std::uint64_t stamp = 1000 + rng.Below(kStampPool);
    history.push_back({t, lba, stamp});
    at_restore[lba] = static_cast<std::int64_t>(stamp);
    latest[lba] = static_cast<std::int64_t>(stamp);
    if (op == 149) {
      mid_point = t;
      at_mid = at_restore;
    }
  }
  ASSERT_LT(t, Seconds(3));
  const SimTime restore_point = Seconds(3);

  // Phase 2: write-only attack burst in [30 s, 36 s).
  SimTime attack_begin = Seconds(30);
  SimTime bt = attack_begin;
  std::size_t burst_start = history.size();
  for (int op = 0; op < 150; ++op) {
    bt += rng.BelowTime(40'000);
    Lba lba = rng.Below(n);
    const std::uint64_t stamp = 900000 + rng.Below(kStampPool);
    history.push_back({bt, lba, stamp});
    latest[lba] = static_cast<std::int64_t>(stamp);
  }
  ASSERT_LT(bt, attack_begin + Seconds(6));

  std::size_t crash_at = burst_start + 20 + rng.Below(110);
  ASSERT_LT(crash_at, history.size());

  for (std::size_t i = 0; i < history.size(); ++i) {
    const Op& op = history[i];
    if (i == burst_start) {
      // Phase-1 backups age out before the burst: unprotected ones are
      // released for good, protected ones move into the version store.
      clean.ReleaseExpired(attack_begin);
      faulty.ReleaseExpired(attack_begin);
      ASSERT_EQ(clean.RecoveryQueueSize(), 0u);
      ASSERT_GT(clean.Store().VersionCount(), 0u)
          << "the protected range never reached the store";
      // Identical content sits in the chains of different LBAs.
      std::map<std::uint64_t, Lba> first_lba_of_stamp;
      bool shared = false;
      clean.Store().ForEachChain(
          [&](Lba lba, const std::vector<version::VersionRecord>& chain) {
            for (const version::VersionRecord& r : chain) {
              const std::uint64_t stamp =
                  clean.Nand().PeekPage(r.ppa).value().stamp;
              auto [it, fresh] = first_lba_of_stamp.emplace(stamp, lba);
              shared = shared || (!fresh && it->second != lba);
            }
          });
      ASSERT_TRUE(shared) << "no content shared across protected LBAs";
    }
    if (i == crash_at) (void)faulty.RebuildFromNand(op.t);
    ASSERT_TRUE(clean.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
    ASSERT_TRUE(faulty.WritePage(op.lba, {op.stamp, {}}, op.t).ok()) << i;
  }

  // Second power cut after the burst: archived pages themselves must
  // survive a rebuild (rescan -> ring -> re-archive converges).
  (void)faulty.RebuildFromNand(Seconds(38));
  ASSERT_EQ(faulty.Stats().rebuilds, 2u);

  // Exactness preconditions.
  for (const PageFtl* dev : {&clean, &faulty}) {
    ASSERT_EQ(dev->Stats().forced_releases, 0u);
    ASSERT_EQ(dev->Stats().queue_evictions, 0u);
    ASSERT_EQ(dev->Stats().archived_evictions, 0u);
    ASSERT_FALSE(dev->IsDegraded());
  }

  // The full rescan rebuilt every chain record for record: same versions,
  // each on a page holding the same content as the twin's.
  for (Lba lba = kProtBegin; lba < kProtEnd; ++lba) {
    const std::vector<version::VersionRecord>* ca = clean.Store().ChainOf(lba);
    const std::vector<version::VersionRecord>* cb =
        faulty.Store().ChainOf(lba);
    ASSERT_EQ(ca == nullptr, cb == nullptr) << "lba " << lba;
    if (ca == nullptr) continue;
    ASSERT_EQ(ca->size(), cb->size()) << "lba " << lba;
    for (std::size_t i = 0; i < ca->size(); ++i) {
      const version::VersionRecord& x = (*ca)[i];
      const version::VersionRecord& y = (*cb)[i];
      ASSERT_EQ(x.written_at, y.written_at) << "lba " << lba;
      ASSERT_EQ(x.tombstone, y.tombstone) << "lba " << lba;
      ASSERT_EQ(clean.Nand().PeekPage(x.ppa).value().stamp,
                faulty.Nand().PeekPage(y.ppa).value().stamp)
          << "lba " << lba;
    }
  }

  const SimTime recover_at = Seconds(40);
  RangeRollbackReport ra =
      clean.RollBackRange(kProtBegin, kProtEnd, restore_point, recover_at);
  RangeRollbackReport rb =
      faulty.RollBackRange(kProtBegin, kProtEnd, restore_point, recover_at);
  EXPECT_EQ(ra.lbas_examined, kProtEnd - kProtBegin);
  EXPECT_EQ(ra.restored, rb.restored);
  EXPECT_EQ(ra.failed, 0u);
  EXPECT_EQ(rb.failed, 0u);
  EXPECT_EQ(clean.CheckInvariants(), "");
  EXPECT_EQ(faulty.CheckInvariants(), "");

  std::vector<std::int64_t> after_restore(n, -1);
  for (Lba lba = 0; lba < n; ++lba) {
    FtlResult a = clean.ReadPage(lba, recover_at);
    FtlResult b = faulty.ReadPage(lba, recover_at);
    ASSERT_EQ(a.status, b.status) << "lba " << lba;
    if (a.ok()) {
      ASSERT_EQ(a.data.stamp, b.data.stamp) << "lba " << lba;
      after_restore[lba] = static_cast<std::int64_t>(a.data.stamp);
    }

    if (lba < kProtEnd) {
      // Protected: back at the restore point. The one documented exception
      // is an LBA born inside the burst — a write to unmapped space leaves
      // no old version, so there is nothing to revert to (same non-goal as
      // global rollback).
      if (at_restore[lba] >= 0) {
        ASSERT_TRUE(a.ok()) << "protected lba " << lba;
        EXPECT_EQ(a.data.stamp, static_cast<std::uint64_t>(at_restore[lba]))
            << "protected lba " << lba;
      } else if (latest[lba] >= 0) {
        ASSERT_TRUE(a.ok()) << "protected lba " << lba;
        EXPECT_EQ(a.data.stamp, static_cast<std::uint64_t>(latest[lba]))
            << "protected lba " << lba << " (unrevertible fresh write)";
      } else {
        EXPECT_EQ(a.status, FtlStatus::kUnmapped) << "protected lba " << lba;
      }
    } else {
      // Unprotected: the rollback must not have touched it.
      if (latest[lba] >= 0) {
        ASSERT_TRUE(a.ok()) << "unprotected lba " << lba;
        EXPECT_EQ(a.data.stamp, static_cast<std::uint64_t>(latest[lba]))
            << "unprotected lba " << lba;
      } else {
        EXPECT_EQ(a.status, FtlStatus::kUnmapped)
            << "unprotected lba " << lba;
      }
    }
  }

  // Selective rollback consumes nothing: rolling the range back again, to
  // the phase-1 midpoint, reads the archived versions themselves.
  const SimTime recover_mid_at = recover_at + Seconds(1);
  RangeRollbackReport ma =
      clean.RollBackRange(kProtBegin, kProtEnd, mid_point, recover_mid_at);
  RangeRollbackReport mb =
      faulty.RollBackRange(kProtBegin, kProtEnd, mid_point, recover_mid_at);
  EXPECT_EQ(ma.restored, mb.restored);
  EXPECT_EQ(ma.unversioned, mb.unversioned);
  EXPECT_EQ(ma.failed, 0u);
  EXPECT_EQ(mb.failed, 0u);
  EXPECT_EQ(clean.CheckInvariants(), "");
  EXPECT_EQ(faulty.CheckInvariants(), "");
  std::size_t from_store = 0;
  for (Lba lba = kProtBegin; lba < kProtEnd; ++lba) {
    if (mid_archived[lba]) ++from_store;
    FtlResult a = clean.ReadPage(lba, recover_mid_at);
    FtlResult b = faulty.ReadPage(lba, recover_mid_at);
    ASSERT_EQ(a.status, b.status) << "lba " << lba;
    // An LBA first written after the midpoint has nothing to revert to and
    // keeps its content.
    const std::int64_t expect =
        at_mid[lba] >= 0 ? at_mid[lba] : after_restore[lba];
    if (expect < 0) {
      EXPECT_EQ(a.status, FtlStatus::kUnmapped) << "protected lba " << lba;
      continue;
    }
    ASSERT_TRUE(a.ok()) << "protected lba " << lba;
    EXPECT_EQ(a.data.stamp, b.data.stamp) << "lba " << lba;
    EXPECT_EQ(a.data.stamp, static_cast<std::uint64_t>(expect))
        << "protected lba " << lba << " at the midpoint";
  }
  EXPECT_GT(from_store, 0u) << "no midpoint version was archived";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectiveRollbackPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 101));

TEST(RollbackEdgeTest, RollbackOnEmptyDeviceIsNoop) {
  PageFtl ftl({});
  RollbackReport r = ftl.RollBack(Seconds(100));
  EXPECT_EQ(r.entries_reverted, 0u);
  EXPECT_TRUE(ftl.IsReadOnly());
}

TEST(RollbackEdgeTest, ConventionalModeCannotRollBack) {
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  cfg.delayed_deletion = false;
  PageFtl ftl(cfg);
  ftl.WritePage(0, {1, {}}, Seconds(1));
  ftl.WritePage(0, {2, {}}, Seconds(20));
  RollbackReport r = ftl.RollBack(Seconds(21));
  EXPECT_EQ(r.entries_reverted, 0u);
  EXPECT_EQ(ftl.ReadPage(0, Seconds(21)).data.stamp, 2u);  // data is gone
}

TEST(RollbackEdgeTest, DoubleRollbackIsIdempotent) {
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  PageFtl ftl(cfg);
  ftl.WritePage(5, {1, {}}, Seconds(1));
  ftl.WritePage(5, {2, {}}, Seconds(20));
  ftl.RollBack(Seconds(21));
  RollbackReport second = ftl.RollBack(Seconds(21));
  EXPECT_EQ(second.entries_reverted, 0u);
  EXPECT_EQ(ftl.ReadPage(5, Seconds(21)).data.stamp, 1u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(RollbackEdgeTest, WritesAfterRebootAreRecoverableAgain) {
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  PageFtl ftl(cfg);
  ftl.WritePage(5, {1, {}}, Seconds(1));
  ftl.WritePage(5, {2, {}}, Seconds(20));
  ftl.RollBack(Seconds(21));
  ftl.SetReadOnly(false);  // reboot
  // A second attack on the recovered data.
  ftl.WritePage(5, {3, {}}, Seconds(40));
  ftl.RollBack(Seconds(41));
  EXPECT_EQ(ftl.ReadPage(5, Seconds(41)).data.stamp, 1u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(RollbackEdgeTest, GcDuringAttackDoesNotBreakRecovery) {
  // Force GC between the attack writes and the rollback: retained pages get
  // physically relocated, and the queue must follow them. Sized so that
  // valid + retained always fits in flash (no backup is sacrificed).
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.geometry.blocks_per_chip = 8;  // 32 blocks, 256 physical pages
  cfg.latency = nand::LatencyModel::Zero();
  cfg.exported_fraction = 0.5;  // 128 LBAs
  PageFtl ftl(cfg);
  Lba n = ftl.ExportedLbas();
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, {lba, {}}, Seconds(1)).ok());
  }
  // Scattered deletes that expire -> GC fodder inside the fill blocks.
  Rng rng(5);
  std::vector<bool> trimmed(n, false);
  for (int i = 0; i < 40; ++i) {
    Lba lba = rng.Below(n);
    ftl.TrimPage(lba, Seconds(2));
    trimmed[lba] = true;
  }
  // Attack overwrites at t=20 (trim backups released on first touch).
  std::vector<Lba> victims;
  for (Lba lba = 0; lba < n; lba += 4) victims.push_back(lba);
  for (Lba lba : victims) {
    ftl.WritePage(lba, {77777, {}}, Seconds(20));
  }
  // Churn to force GC while the attack backups are live (sized to drain
  // the free pool without exceeding valid+retained <= physical).
  for (int round = 0; round < 5; ++round) {
    for (Lba lba = 1; lba < n; lba += 8) {
      ASSERT_TRUE(ftl.WritePage(lba, {88888, {}}, Seconds(21)).ok());
    }
  }
  ASSERT_GT(ftl.Stats().gc_erases, 0u);
  ASSERT_EQ(ftl.Stats().forced_releases, 0u);
  ftl.RollBack(Seconds(22));
  for (Lba lba : victims) {
    // Victims trimmed long before the attack have no pre-attack version to
    // restore (their backups expired with the deletion); the attack's write
    // to the unmapped LBA is a fresh write — the design's documented
    // non-goal. All still-mapped victims must recover exactly.
    if (trimmed[lba]) continue;
    FtlResult r = ftl.ReadPage(lba, Seconds(22));
    ASSERT_TRUE(r.ok()) << "lba " << lba;
    EXPECT_EQ(r.data.stamp, lba) << "lba " << lba;
  }
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

}  // namespace
}  // namespace insider::ftl
