#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "core/pretrained.h"
#include "host/dram.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"

namespace insider::host {
namespace {

SsdConfig SmallSsd() {
  SsdConfig c;
  c.ftl.geometry = nand::TestGeometry();
  c.ftl.latency = nand::LatencyModel::Zero();
  c.detector.slice_length = Seconds(1);
  c.detector.window_slices = 10;
  c.detector.score_threshold = 3;
  return c;
}

/// Tree voting ransomware iff OWIO > 30 (deterministic for tests).
core::DecisionTree SimpleTree() {
  std::vector<core::DecisionTree::Node> nodes(3);
  nodes[0].is_leaf = false;
  nodes[0].feature = core::FeatureId::kOwIo;
  nodes[0].threshold = 30.0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].is_leaf = true;
  nodes[1].label = false;
  nodes[2].is_leaf = true;
  nodes[2].label = true;
  return core::DecisionTree(std::move(nodes));
}

TEST(SsdTest, SubmitWritesAndReadsBack) {
  Ssd ssd(SmallSsd(), SimpleTree());
  EXPECT_EQ(ssd.Submit({1000, 10, 4, IoMode::kWrite}, 100),
            ftl::FtlStatus::kOk);
  ftl::FtlResult r = ssd.Ftl().ReadPage(12, 2000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data.stamp, 102u);  // stamp_base + block index
}

TEST(SsdTest, ClockFollowsRequestTimes) {
  Ssd ssd(SmallSsd(), SimpleTree());
  (void)ssd.Submit({Seconds(5), 0, 1, IoMode::kWrite}, 0);
  EXPECT_GE(ssd.Clock().Now(), Seconds(5));
}

TEST(SsdTest, AlarmLatchesReadOnly) {
  Ssd ssd(SmallSsd(), SimpleTree());
  // Simulated attack: read then overwrite 40 blocks every slice.
  SimTime t = 0;
  for (int s = 0; s < 6 && !ssd.AlarmActive(); ++s) {
    t = Seconds(s) + 1000;
    Lba lba = static_cast<Lba>(s) * 50;
    (void)ssd.Submit({t, lba, 40, IoMode::kRead}, 0);
    (void)ssd.Submit({t + 1000, lba, 40, IoMode::kWrite}, 0);
  }
  // Tick one more slice boundary so the last vote lands.
  ssd.IdleUntil(t + Seconds(2));
  ASSERT_TRUE(ssd.AlarmActive());
  EXPECT_TRUE(ssd.Ftl().IsReadOnly());
  EXPECT_EQ(ssd.Submit({t + Seconds(2), 400, 1, IoMode::kWrite}, 0),
            ftl::FtlStatus::kReadOnly);
}

TEST(SsdTest, RollbackRecoversPreAttackData) {
  Ssd ssd(SmallSsd(), SimpleTree());
  // Benign phase: fill 64 LBAs with stamp = lba at t=1s.
  for (Lba lba = 0; lba < 64; ++lba) {
    ASSERT_EQ(ssd.Submit({Seconds(1), lba, 1, IoMode::kWrite}, lba),
              ftl::FtlStatus::kOk);
  }
  ssd.IdleUntil(Seconds(15));
  // Attack: read + overwrite everything with stamp 9999.
  for (int s = 0; s < 5 && !ssd.AlarmActive(); ++s) {
    SimTime t = Seconds(15 + s);
    (void)ssd.Submit({t, 0, 64, IoMode::kRead}, 0);
    (void)ssd.Submit({t + 1000, 0, 64, IoMode::kWrite}, 9999);
  }
  ssd.IdleUntil(ssd.Clock().Now() + Seconds(1));
  ASSERT_TRUE(ssd.AlarmActive());
  ftl::RollbackReport rep = ssd.RollBackNow();
  EXPECT_GT(rep.entries_reverted, 0u);
  EXPECT_LT(rep.duration, Seconds(1));  // the paper's <1 s recovery
  for (Lba lba = 0; lba < 64; ++lba) {
    ftl::FtlResult r = ssd.Ftl().ReadPage(lba, ssd.Clock().Now());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.data.stamp, lba) << "lba " << lba << " not recovered";
  }
  EXPECT_EQ(ssd.Ftl().CheckInvariants(), "");
}

TEST(SsdTest, RebootClearsLatchAndDetector) {
  Ssd ssd(SmallSsd(), SimpleTree());
  for (int s = 0; s < 6 && !ssd.AlarmActive(); ++s) {
    SimTime t = Seconds(s) + 1000;
    Lba lba = static_cast<Lba>(s) * 50;
    (void)ssd.Submit({t, lba, 40, IoMode::kRead}, 0);
    (void)ssd.Submit({t + 1000, lba, 40, IoMode::kWrite}, 0);
  }
  ssd.IdleUntil(Seconds(8));
  ASSERT_TRUE(ssd.AlarmActive());
  ssd.RollBackNow();
  ssd.Reboot();
  EXPECT_FALSE(ssd.AlarmActive());
  EXPECT_EQ(ssd.Submit({Seconds(9), 400, 1, IoMode::kWrite}, 0),
            ftl::FtlStatus::kOk);
}

TEST(SsdTest, DetectorDisabledNeverAlarms) {
  SsdConfig cfg = SmallSsd();
  cfg.detector_enabled = false;
  Ssd ssd(cfg, SimpleTree());
  for (int s = 0; s < 10; ++s) {
    SimTime t = Seconds(s) + 1000;
    Lba lba = static_cast<Lba>(s) * 50;
    (void)ssd.Submit({t, lba, 40, IoMode::kRead}, 0);
    (void)ssd.Submit({t + 1000, lba, 40, IoMode::kWrite}, 0);
  }
  EXPECT_FALSE(ssd.AlarmActive());
}

TEST(SsdTest, BlockDeviceInterfaceRoundTrip) {
  Ssd ssd(SmallSsd(), SimpleTree());
  std::vector<std::byte> data(fs::kBlockSize, std::byte{0x5C});
  ASSERT_TRUE(ssd.WriteBlock(3, data));
  std::vector<std::byte> out(fs::kBlockSize);
  ASSERT_TRUE(ssd.ReadBlock(3, out));
  EXPECT_EQ(out, data);
}

TEST(SsdTest, UnwrittenBlockReadsAsZeros) {
  Ssd ssd(SmallSsd(), SimpleTree());
  std::vector<std::byte> out(fs::kBlockSize, std::byte{0xFF});
  ASSERT_TRUE(ssd.ReadBlock(9, out));
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(SsdTest, TrimBlockSucceedsAndUnmaps) {
  Ssd ssd(SmallSsd(), SimpleTree());
  std::vector<std::byte> data(fs::kBlockSize, std::byte{1});
  ASSERT_TRUE(ssd.WriteBlock(3, data));
  EXPECT_TRUE(ssd.TrimBlock(3));
  EXPECT_TRUE(ssd.TrimBlock(3));  // trim of unmapped is tolerated
  std::vector<std::byte> out(fs::kBlockSize);
  ASSERT_TRUE(ssd.ReadBlock(3, out));
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

// Time-ordering contract (see Ssd::Submit in ssd.h): a request stamped
// earlier than the device clock executes at the clock, never in the past.
// The io::IoEngine depends on this when draining queued commands.
TEST(SsdTest, StaleSubmitTimeClampsToDeviceClock) {
  Ssd ssd(SmallSsd(), SimpleTree());
  ASSERT_EQ(ssd.Submit({Seconds(5), 0, 1, IoMode::kWrite}, 7),
            ftl::FtlStatus::kOk);
  SimTime after_first = ssd.Clock().Now();
  ASSERT_GE(after_first, Seconds(5));

  // Stale request: host-stamped at t=1s, but the device is already at 5s+.
  ASSERT_EQ(ssd.Submit({Seconds(1), 1, 1, IoMode::kWrite}, 8),
            ftl::FtlStatus::kOk);
  // The clock never went backwards and the write executed "now".
  EXPECT_GE(ssd.Clock().Now(), after_first);
  ftl::FtlResult r = ssd.Ftl().ReadPage(1, ssd.Clock().Now());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data.stamp, 8u);
}

TEST(SsdTest, StaleSubmitKeepsDetectorSliceStreamMonotone) {
  Ssd ssd(SmallSsd(), SimpleTree());
  // March the detector to slice ~6, then feed a request stamped in slice 1.
  (void)ssd.Submit({Seconds(6), 0, 1, IoMode::kWrite}, 0);
  (void)ssd.Submit({Seconds(1), 1, 1, IoMode::kWrite}, 0);
  ssd.IdleUntil(Seconds(10));
  SimTime prev = -1;
  double total_io = 0.0;
  for (const core::SliceRecord& rec : ssd.Detector().History()) {
    EXPECT_GT(rec.end_time, prev);
    prev = rec.end_time;
    total_io += rec.features.io();
  }
  // Both writes were observed, and the clamped one landed in the slice that
  // was open at the device clock — not in the long-closed slice 1.
  EXPECT_DOUBLE_EQ(total_io, 2.0);
  for (const core::SliceRecord& rec : ssd.Detector().History()) {
    if (rec.end_time <= Seconds(6)) {
      EXPECT_EQ(rec.features.io(), 0.0);
    }
  }
}

// A command that does not lie wholly inside the exported range is rejected
// before the detector or the FTL sees it: the detector tracks no key of it
// (a run at UINT64_MAX - 1 would wrap past the end of the LBA space) and no
// page of a command straddling the end is written.
TEST(SsdRangeTest, OutOfRangeCommandReachesNeitherDetectorNorFtl) {
  Ssd ssd(SmallSsd(), SimpleTree());
  const Lba top = std::numeric_limits<Lba>::max() - 1;
  const Lba end = ssd.Ftl().ExportedLbas();
  EXPECT_EQ(ssd.Submit({1000, top, 4, IoMode::kRead}, 0),
            ftl::FtlStatus::kOutOfRange);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 0u);
  EXPECT_EQ(ssd.Detector().Table().Counters().read_blocks, 0u);

  EXPECT_EQ(ssd.Submit({2000, end - 2, 4, IoMode::kWrite}, 0),
            ftl::FtlStatus::kOutOfRange);
  EXPECT_EQ(ssd.Ftl().ReadPage(end - 2, 3000).status,
            ftl::FtlStatus::kUnmapped);
  EXPECT_EQ(ssd.Detector().Table().Counters().write_blocks, 0u);

  EXPECT_EQ(ssd.ReadBlockAt(end, 4000).status, ftl::FtlStatus::kOutOfRange);
  EXPECT_EQ(ssd.TrimBlockAt(top, 5000).status, ftl::FtlStatus::kOutOfRange);
  std::vector<std::byte> block(fs::kBlockSize);
  EXPECT_FALSE(ssd.WriteBlock(end, block));
  EXPECT_EQ(ssd.Detector().Table().Counters().write_blocks, 0u);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 0u);

  // A legal read well past the window, then another out-of-range one.
  ASSERT_EQ(ssd.Submit({Seconds(19), 5, 1, IoMode::kRead}, 0),
            ftl::FtlStatus::kOk);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 1u);
  EXPECT_EQ(ssd.Detector().Table().CheckInvariants(), "");
  EXPECT_EQ(ssd.Submit({Seconds(20), top, 4, IoMode::kRead}, 0),
            ftl::FtlStatus::kOutOfRange);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 1u);
  EXPECT_EQ(ssd.Detector().Table().CheckInvariants(), "");
}

TEST(SsdRangeTest, EnginePathRejectsOutOfRangeCommandWhole) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);
  io::IoEngine engine(target, io::EngineConfig{});
  auto round_trip = [&](const IoRequest& request) {
    EXPECT_TRUE(engine.TrySubmit(0, request, 0));
    engine.Drain();
    std::optional<io::Completion> c = engine.PopCompletion(0);
    EXPECT_TRUE(c.has_value());
    return c.value_or(io::Completion{});
  };
  const Lba top = std::numeric_limits<Lba>::max() - 1;
  const Lba end = ssd.Ftl().ExportedLbas();

  io::Completion read = round_trip({1000, top, 4, IoMode::kRead});
  EXPECT_FALSE(read.ok);
  EXPECT_EQ(read.status, io::DeviceStatus::kInvalidAddress);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 0u);

  io::Completion write = round_trip({2000, end - 2, 4, IoMode::kWrite});
  EXPECT_EQ(write.status, io::DeviceStatus::kInvalidAddress);
  EXPECT_EQ(ssd.Ftl().ReadPage(end - 2, 3000).status,
            ftl::FtlStatus::kUnmapped);
  EXPECT_EQ(ssd.Detector().Table().Counters().write_blocks, 0u);

  EXPECT_TRUE(round_trip({Seconds(19), 5, 1, IoMode::kRead}).ok);
  EXPECT_TRUE(round_trip({Seconds(19) + 1, end - 1, 1, IoMode::kWrite}).ok);
  EXPECT_EQ(round_trip({Seconds(20), top, 4, IoMode::kRead}).status,
            io::DeviceStatus::kInvalidAddress);
  EXPECT_EQ(ssd.Detector().Table().KeyCount(), 1u);
  EXPECT_EQ(ssd.Detector().Table().CheckInvariants(), "");
}

TEST(DramTest, PaperBudgetMatchesTableIII) {
  std::vector<DramRow> rows = PaperDramBudget();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_NEAR(rows[0].Megabytes(), 10.0, 0.1);   // hash table
  EXPECT_NEAR(rows[1].Megabytes(), 0.011, 0.02); // counting table
  EXPECT_NEAR(rows[2].Megabytes(), 30.0, 0.1);   // recovery queue
  EXPECT_NEAR(TotalMegabytes(rows), 40.0, 0.2);
}

TEST(DramTest, ActualBudgetScalesWithConfig) {
  core::DetectorConfig d;
  ftl::FtlConfig f;
  std::vector<DramRow> base = ActualDramBudget(d, f);
  d.table.max_hash_keys *= 2;
  f.recovery_queue_capacity *= 2;
  std::vector<DramRow> bigger = ActualDramBudget(d, f);
  EXPECT_GT(bigger[0].Megabytes(), base[0].Megabytes());
  EXPECT_GT(bigger[2].Megabytes(), base[2].Megabytes());
}

TEST(DramTest, PaperScaleBudgetStaysUnderFiftyMegabytes) {
  // The queue keeps no per-page index (a guarded page's entry id lives in
  // its P2L slot), so the budget does not grow with the device.
  core::DetectorConfig d;
  ftl::FtlConfig f;
  f.geometry = nand::Geometry::PaperScale();
  std::vector<DramRow> rows = ActualDramBudget(d, f);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].structure, "Recovery queue");
  EXPECT_EQ(rows[2].unit_bytes, 12u);
  EXPECT_LE(TotalMegabytes(rows), 50.0);
  EXPECT_EQ(TotalMegabytes(rows), TotalMegabytes(ActualDramBudget(d, {})));
}

}  // namespace
}  // namespace insider::host
