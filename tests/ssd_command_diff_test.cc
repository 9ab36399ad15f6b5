// Differential test of the command-granular FTL entry.
//
// Ssd::SubmitAsync hands a whole read or write command to the FTL
// (PageFtl::ReadRange / WriteRange). ReferenceDevice below is the loop that
// replaced: one FTL call per page through ReadPage / WritePage / TrimPage,
// each at the command's clamped time, kUnmapped pages skipped, any other
// failure ending the command, and the background-GC task armed after a
// command that completed. Random multi-page command streams run through
// twin devices, one per path, and after every command the completion's
// status and time, the device clock, FtlStats, the NAND counters, the
// free pool, the recovery queue and CheckInvariants() must match.
//
// The detector is off on both twins (its header path is the same code on
// both sides and is not under test here), so the reference reaches every
// step it needs through the device's public surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/pretrained.h"
#include "host/ssd.h"

namespace insider::host {
namespace {

/// Today's page-at-a-time ExecuteAsync, driven from outside the device.
class ReferenceDevice {
 public:
  explicit ReferenceDevice(Ssd& ssd) : ssd_(ssd) {}

  Ssd::SubmitOutcome SubmitAsync(const IoRequest& request,
                                 std::uint64_t stamp_base) {
    IoRequest effective = request;
    if (effective.time < ssd_.Clock().Now()) {
      effective.time = ssd_.Clock().Now();
    }
    ssd_.Clock().AdvanceTo(effective.time);
    SimTime now = effective.time;
    Ssd::SubmitOutcome outcome;
    outcome.complete_time = now;
    const std::uint64_t exported = ssd_.Ftl().ExportedLbas();
    if (!(request.length <= exported &&
          request.lba <= exported - request.length)) {
      outcome.status = ftl::FtlStatus::kOutOfRange;
      return outcome;
    }
    for (std::uint32_t i = 0; i < request.length; ++i) {
      ftl::FtlResult r = ExecutePage(request, i, stamp_base, now);
      if (!r.ok()) {
        if (r.status != ftl::FtlStatus::kUnmapped) {
          outcome.status = r.status;
          return outcome;
        }
      } else if (r.complete_time > outcome.complete_time) {
        outcome.complete_time = r.complete_time;
      }
    }
    MaybeArmBackgroundGc();
    return outcome;
  }

 private:
  ftl::FtlResult ExecutePage(const IoRequest& request, std::uint32_t i,
                             std::uint64_t stamp_base, SimTime now) {
    ftl::PageFtl& ftl = ssd_.Ftl();
    switch (request.mode) {
      case IoMode::kRead:
        return ftl.ReadPage(request.lba + i, now);
      case IoMode::kWrite: {
        nand::PageData data;
        data.stamp = stamp_base + i;
        return ftl.WritePage(request.lba + i, data, now);
      }
      case IoMode::kTrim:
        return ftl.TrimPage(request.lba + i, now);
      case IoMode::kRangeLock:
      case IoMode::kRangeUnlock:
        return {ftl::FtlStatus::kOk, now, {}};
    }
    return {};
  }

  /// Ssd::MaybeArmBackgroundGc, on the reference device's scheduler.
  void MaybeArmBackgroundGc() {
    if (bg_gc_armed_ || !ssd_.Ftl().BackgroundGcNeeded()) return;
    bg_gc_armed_ = true;
    ssd_.Firmware().Schedule(
        "background_gc", ssd_.Clock().Now() + ssd_.Config().gc_task_interval,
        [this](SimTime now) {
          const SsdConfig& c = ssd_.Config();
          std::size_t reclaimed =
              ssd_.Ftl().BackgroundCollect(now, c.gc_task_block_budget);
          if (reclaimed == c.gc_task_block_budget) {
            return now + c.gc_task_interval;
          }
          bg_gc_armed_ = false;
          return FirmwareScheduler::kNever;
        });
  }

  Ssd& ssd_;
  bool bg_gc_armed_ = false;
};

struct Scenario {
  const char* name;
  bool delayed_deletion;
  bool checkpoints;
  double program_fail_prob;
  /// Faults retire blocks fast enough that the device runs out of spares
  /// and latches itself read-only (degraded) part-way through the stream.
  bool wears_out;
};

SsdConfig ConfigFor(const Scenario& s, std::uint64_t seed) {
  SsdConfig c;
  c.detector_enabled = false;
  c.ftl.geometry = nand::Geometry{.channels = 3,
                                  .ways = 5,
                                  .blocks_per_chip = 12,
                                  .pages_per_block = 8,
                                  .page_size = 4096};
  c.ftl.exported_fraction = 0.7;
  c.ftl.delayed_deletion = s.delayed_deletion;
  c.ftl.retention_window = Milliseconds(30);
  c.ftl.errors.program_fail_prob = s.program_fail_prob;
  c.ftl.errors.erase_fail_prob = s.program_fail_prob / 2;
  c.ftl.error_seed = seed;
  // Scripted uncorrectable reads, some landing inside multi-page reads.
  for (std::uint64_t op : {3u, 4u, 9u, 40u, 41u, 42u, 200u, 333u, 901u}) {
    c.ftl.fault_plan.FailReadAtOp(op);
  }
  c.ftl.fault_plan.FailProgramAtOp(7).FailProgramAtOp(8);
  if (s.checkpoints) {
    // A small journal: batches flush every 8 records and the region passes
    // 70% every few dozen pages, so flushes and pre-emptive checkpoints
    // fire inside multi-page commands.
    c.ftl.checkpoint.enabled = true;
    c.ftl.checkpoint.interval = Milliseconds(20);
    c.ftl.checkpoint.journal_records_per_page = 8;
    c.ftl.checkpoint.journal_blocks_per_region = 1;
    c.ftl.checkpoint.checkpoint_blocks_per_buffer = 4;
  }
  c.firmware_tick = Milliseconds(5);
  return c;
}

/// What one stream reached, beyond the equalities checked per command.
struct Coverage {
  ftl::FtlStats stats;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t multi_page_failures = 0;  ///< failed after some page ran
  std::uint64_t read_only_commands = 0;
  /// The degraded read-only latch set by a command that had already run
  /// some of its pages.
  std::uint64_t mid_command_latches = 0;
};

/// Replays one random command stream through twin devices, asserting after
/// every command that the range path and the reference loop agree.
void RunStream(const Scenario& scenario, std::uint64_t seed, Coverage& cov) {
  const SsdConfig config = ConfigFor(scenario, seed);
  Ssd ssd(config, core::PretrainedTree());
  Ssd twin(config, core::PretrainedTree());
  ReferenceDevice reference(twin);
  ASSERT_TRUE(ssd.Ftl().GeometryStatus().ok());

  Rng rng(seed * 0x51d + 7);
  const Lba n = ssd.Ftl().ExportedLbas();
  SimTime t = 0;
  std::uint64_t stamp = 1;
  for (int cmd = 0; cmd < 1500; ++cmd) {
    // Mostly forward in time, sometimes stale (the device clamps it).
    if (rng.Chance(0.9)) t += rng.BelowTime(Microseconds(300));
    IoRequest req;
    req.time = rng.Chance(0.1) ? t - rng.BelowTime(Microseconds(500)) : t;
    const double dice = rng.Uniform();
    req.mode = dice < 0.45   ? IoMode::kWrite
               : dice < 0.85 ? IoMode::kRead
                             : IoMode::kTrim;
    req.length = 1 + static_cast<std::uint32_t>(rng.Below(16));
    req.lba = rng.Below(n);
    if (rng.Chance(0.02)) req.lba = n - 1;  // runs past the end: out of range
    // The host flips the alarm latch between commands now and then.
    if (rng.Chance(0.01)) {
      const bool latch = !ssd.Ftl().IsReadOnly();
      ssd.Ftl().SetReadOnly(latch);
      twin.Ftl().SetReadOnly(latch);
    }

    ssd.DrainFirmware(req.time);
    twin.DrainFirmware(req.time);
    const bool degraded_before = ssd.Ftl().IsDegraded();
    const ftl::FtlStats stats_before = ssd.Ftl().Stats();
    const Ssd::SubmitOutcome got = ssd.SubmitAsync(req, stamp);
    const Ssd::SubmitOutcome want = reference.SubmitAsync(req, stamp);
    stamp += req.length;

    const std::string where = "command " + std::to_string(cmd);
    ASSERT_EQ(got.status, want.status) << where;
    ASSERT_EQ(got.complete_time, want.complete_time) << where;
    ASSERT_EQ(ssd.Clock().Now(), twin.Clock().Now()) << where;
    ASSERT_TRUE(ssd.Ftl().Stats() == twin.Ftl().Stats()) << where;
    ASSERT_TRUE(ssd.Ftl().Nand().Counters() == twin.Ftl().Nand().Counters())
        << where;
    ASSERT_EQ(ssd.Ftl().FreeBlockCount(), twin.Ftl().FreeBlockCount())
        << where;
    ASSERT_EQ(ssd.Ftl().RecoveryQueueSize(), twin.Ftl().RecoveryQueueSize())
        << where;
    ASSERT_EQ(ssd.Ftl().IsReadOnly(), twin.Ftl().IsReadOnly()) << where;
    ASSERT_EQ(ssd.Ftl().CheckInvariants(), "") << where;
    ASSERT_EQ(twin.Ftl().CheckInvariants(), "") << where;

    const ftl::FtlStats& after = ssd.Ftl().Stats();
    const bool progressed = after.host_writes > stats_before.host_writes ||
                            after.host_reads > stats_before.host_reads ||
                            after.host_trims > stats_before.host_trims;
    if (!got.ok() && progressed) ++cov.multi_page_failures;
    if (got.status == ftl::FtlStatus::kReadOnly) ++cov.read_only_commands;
    if (!degraded_before && ssd.Ftl().IsDegraded() && progressed) {
      ++cov.mid_command_latches;
    }
  }

  // Every LBA ends up mapped to the same page holding the same stamp.
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_EQ(ssd.Ftl().Lookup(lba), twin.Ftl().Lookup(lba)) << lba;
  }

  cov.stats = ssd.Ftl().Stats();
  cov.uncorrectable_reads = ssd.Ftl().Nand().Counters().uncorrectable_reads;
}

class SsdCommandDiffTest
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(SsdCommandDiffTest, RangeEntriesMatchThePageLoop) {
  const auto& [scenario, seed] = GetParam();
  Coverage cov;
  RunStream(scenario, seed, cov);
  if (HasFatalFailure()) return;

  // The stream reached what the ranges must reproduce.
  const ftl::FtlStats& s = cov.stats;
  EXPECT_GT(s.host_writes, scenario.wears_out ? 300u : 1000u);
  EXPECT_GT(s.host_reads, 1000u);
  EXPECT_GT(s.gc_erases, 0u);
  EXPECT_GT(s.program_fails, 0u);
  EXPECT_GT(cov.uncorrectable_reads, 0u);
  EXPECT_GT(cov.multi_page_failures, 0u) << "no command failed mid-way";
  EXPECT_GT(cov.read_only_commands, 0u);
  if (scenario.delayed_deletion) {
    EXPECT_GT(s.trim_tombstones, 0u);
  }
  if (scenario.checkpoints) {
    EXPECT_GT(s.checkpoints_taken, 0u);
    EXPECT_GT(s.journal_pages_flushed, 0u);
  }
}

const Scenario kScenarios[] = {
    {"insider_checkpointed", true, true, 0.003, false},
    {"insider", true, false, 0.003, false},
    {"conventional", false, false, 0.003, false},
    {"wear_out", true, true, 0.08, true},
};

// Seed 1 of the wear-out stream runs out of spares inside a multi-page
// write: some of its pages programmed, the next found no space, and the
// degraded read-only latch went up mid-command on both paths alike.
TEST(SsdWearOutDiffTest, DegradedLatchMidCommand) {
  Coverage cov;
  RunStream(kScenarios[3], 1, cov);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(cov.mid_command_latches, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SsdCommandDiffTest,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace insider::host
