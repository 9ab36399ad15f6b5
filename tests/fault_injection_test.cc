// Device-fault injection, bottom to top: scripted NAND program/erase/read
// faults (FaultPlan), FTL write re-drive and grown-bad-block retirement,
// graceful degradation to read-only when spares run out, deterministic
// probabilistic fault sampling, and the I/O engine's bounded read retry.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "io/io_engine.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider {
namespace {

nand::PageData Page(std::uint64_t stamp) {
  nand::PageData d;
  d.stamp = stamp;
  return d;
}

// ---------------------------------------------------------------------------
// NAND layer: FlashArray honors the scripted plan.

class NandFaultTest : public ::testing::Test {
 protected:
  nand::Geometry geo_ = nand::TestGeometry();
  nand::FlashArray nand_{geo_, nand::LatencyModel::Zero()};
};

TEST_F(NandFaultTest, ScriptedProgramFailBurnsThePage) {
  nand::FaultPlan plan;
  plan.FailProgramAtOp(1);
  nand_.SetFaultPlan(plan);

  nand::Ppa p0 = geo_.MakePpa(0, 0, 0);
  nand::NandResult w = nand_.ProgramPage(p0, Page(42), 0);
  EXPECT_EQ(w.status, nand::NandStatus::kProgramFail);
  EXPECT_TRUE(nand_.IsBadPage(p0));
  EXPECT_EQ(nand_.Counters().program_fails, 1u);
  EXPECT_EQ(nand_.Counters().page_programs, 0u);

  // The burned page consumed its block position: the write pointer advanced,
  // so the next sequential program lands on page 1 and succeeds.
  nand::Ppa p1 = geo_.MakePpa(0, 0, 1);
  EXPECT_TRUE(nand_.ProgramPage(p1, Page(43), 0).ok());

  // Reading the burned page fails as uncorrectable, never crashes.
  EXPECT_EQ(nand_.ReadPage(p0, 0).status, nand::NandStatus::kUncorrectableEcc);

  // An erase clears the defect marker and the page programs again.
  ASSERT_TRUE(nand_.EraseBlock({0, 0}, 0).ok());
  EXPECT_FALSE(nand_.IsBadPage(p0));
  EXPECT_TRUE(nand_.ProgramPage(p0, Page(44), 0).ok());
}

TEST_F(NandFaultTest, ScriptedEraseFailLeavesContentsUntouched) {
  nand::Ppa p0 = geo_.MakePpa(0, 0, 0);
  ASSERT_TRUE(nand_.ProgramPage(p0, Page(7), 0).ok());

  nand::FaultPlan plan;
  plan.FailEraseAtOp(1);
  nand_.SetFaultPlan(plan);

  nand::NandResult er = nand_.EraseBlock({0, 0}, 0);
  EXPECT_EQ(er.status, nand::NandStatus::kEraseFail);
  EXPECT_EQ(nand_.Counters().erase_fails, 1u);
  EXPECT_EQ(nand_.Counters().block_erases, 0u);

  // A failed erase must not lose the block's data.
  nand::NandResult r = nand_.ReadPage(p0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data->stamp, 7u);

  // The plan event is consumed: the retry succeeds.
  EXPECT_TRUE(nand_.EraseBlock({0, 0}, 0).ok());
  EXPECT_EQ(nand_.Plan().Pending(), 0u);
}

TEST_F(NandFaultTest, ScriptedReadFaultIsUncorrectable) {
  nand::Ppa p0 = geo_.MakePpa(0, 0, 0);
  ASSERT_TRUE(nand_.ProgramPage(p0, Page(9), 0).ok());

  nand::FaultPlan plan;
  plan.FailReadAtOp(2);
  nand_.SetFaultPlan(plan);

  EXPECT_TRUE(nand_.ReadPage(p0, 0).ok());  // op 1: clean
  EXPECT_EQ(nand_.ReadPage(p0, 0).status,   // op 2: scripted fault
            nand::NandStatus::kUncorrectableEcc);
  EXPECT_TRUE(nand_.ReadPage(p0, 0).ok());  // op 3: clean again (transient)
  EXPECT_EQ(nand_.Counters().uncorrectable_reads, 1u);
}

TEST_F(NandFaultTest, TimeTriggeredFaultFiresOnFirstAttemptPastDeadline) {
  nand::FaultPlan plan;
  plan.FailProgramAt(Seconds(5));
  nand_.SetFaultPlan(plan);

  EXPECT_TRUE(nand_.ProgramPage(geo_.MakePpa(0, 0, 0), Page(1), Seconds(1)).ok());
  EXPECT_EQ(nand_.ProgramPage(geo_.MakePpa(0, 0, 1), Page(2), Seconds(6)).status,
            nand::NandStatus::kProgramFail);
  EXPECT_TRUE(nand_.ProgramPage(geo_.MakePpa(0, 0, 2), Page(3), Seconds(7)).ok());
  EXPECT_EQ(nand_.Plan().Pending(), 0u);
}

TEST_F(NandFaultTest, RejectedProgramConsumesNoScriptedFault) {
  nand_.SetFaultPlan(nand::FaultPlan().FailProgramAtOp(1));

  // Out of order on an erased block: rejected before it reaches the media.
  EXPECT_EQ(nand_.ProgramPage(geo_.MakePpa(0, 0, 3), Page(1), 0).status,
            nand::NandStatus::kProgramOutOfOrder);
  EXPECT_EQ(nand_.Plan().Pending(), 1u);

  // The first program that does reach the media is op 1 and fails.
  EXPECT_EQ(nand_.ProgramPage(geo_.MakePpa(0, 0, 0), Page(2), 0).status,
            nand::NandStatus::kProgramFail);
  EXPECT_EQ(nand_.Plan().Pending(), 0u);
  EXPECT_EQ(nand_.Counters().program_fails, 1u);

  // A full block rejects without sampling either: arm the op right after
  // the fill, then try the full block first.
  nand_.SetFaultPlan(
      nand::FaultPlan().FailProgramAtOp(2 + geo_.pages_per_block));
  for (std::uint32_t p = 0; p < geo_.pages_per_block; ++p) {
    ASSERT_TRUE(nand_.ProgramPage(geo_.MakePpa(0, 1, p), Page(p), 0).ok());
  }
  EXPECT_EQ(nand_.ProgramPage(geo_.MakePpa(0, 1, 0), Page(3), 0).status,
            nand::NandStatus::kProgramToFullBlock);
  EXPECT_EQ(nand_.Plan().Pending(), 1u);
  EXPECT_EQ(nand_.ProgramPage(geo_.MakePpa(0, 2, 0), Page(4), 0).status,
            nand::NandStatus::kProgramFail);
}

TEST_F(NandFaultTest, RejectedProgramLeavesTheErrorRngUntouched) {
  nand::ErrorModel errors;
  errors.program_fail_prob = 0.5;
  nand::FlashArray probed(geo_, nand::LatencyModel::Zero(), errors, 7);
  nand::FlashArray twin(geo_, nand::LatencyModel::Zero(), errors, 7);

  EXPECT_EQ(probed.ProgramPage(geo_.MakePpa(1, 0, 3), Page(0), 0).status,
            nand::NandStatus::kProgramOutOfOrder);

  // Every attempt, failed or not, consumes its page, so consecutive PPAs of
  // chip 0 are always the next legal program.
  for (nand::Ppa ppa = 0; ppa < 32; ++ppa) {
    EXPECT_EQ(probed.ProgramPage(ppa, Page(ppa), 0).status,
              twin.ProgramPage(ppa, Page(ppa), 0).status)
        << "ppa " << ppa;
  }
  EXPECT_EQ(probed.Counters(), twin.Counters());
}

// ---------------------------------------------------------------------------
// FTL layer: re-drive, retirement, degradation.

ftl::FtlConfig FaultFtlConfig() {
  ftl::FtlConfig c;
  c.geometry = nand::TestGeometry();  // 2x2 chips, 16 blocks/chip, 8 pp/b
  c.latency = nand::LatencyModel::Zero();
  c.exported_fraction = 0.5;
  return c;
}

TEST(FtlFaultTest, ProgramFailIsRedrivenTransparently) {
  ftl::FtlConfig c = FaultFtlConfig();
  c.fault_plan.FailProgramAtOp(1);
  ftl::PageFtl ftl(c);

  // The host write succeeds despite the media failing its first attempt.
  ASSERT_TRUE(ftl.WritePage(7, Page(1234), Seconds(1)).ok());
  ftl::FtlResult r = ftl.ReadPage(7, Seconds(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data.stamp, 1234u);

  EXPECT_EQ(ftl.Stats().program_fails, 1u);
  EXPECT_EQ(ftl.Stats().write_redrives, 1u);
  EXPECT_EQ(ftl.Nand().Counters().program_fails, 1u);

  // The block that burned a page left the write frontier immediately; the
  // next write triggers its evacuation + retirement.
  ASSERT_TRUE(ftl.WritePage(8, Page(5678), Seconds(2)).ok());
  EXPECT_EQ(ftl.RetiredBlockCount(), 1u);
  EXPECT_EQ(ftl.Stats().blocks_retired, 1u);
  EXPECT_FALSE(ftl.IsDegraded());
  EXPECT_EQ(ftl.CheckInvariants(), "");

  // Both LBAs still read back.
  EXPECT_EQ(ftl.ReadPage(7, Seconds(3)).data.stamp, 1234u);
  EXPECT_EQ(ftl.ReadPage(8, Seconds(3)).data.stamp, 5678u);
}

TEST(FtlFaultTest, RetiredBlockEvacuationPreservesLiveData) {
  ftl::FtlConfig c = FaultFtlConfig();
  // Fail the 10th program: by then several LBAs live in the victim block,
  // so retirement must relocate them.
  c.fault_plan.FailProgramAtOp(10);
  ftl::PageFtl ftl(c);

  SimTime t = Seconds(1);
  for (Lba lba = 0; lba < 24; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, Page(100 + lba), t).ok()) << lba;
    t += Milliseconds(10);
  }
  EXPECT_EQ(ftl.Stats().program_fails, 1u);
  EXPECT_GE(ftl.RetiredBlockCount(), 1u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
  for (Lba lba = 0; lba < 24; ++lba) {
    ftl::FtlResult r = ftl.ReadPage(lba, t);
    ASSERT_TRUE(r.ok()) << lba;
    EXPECT_EQ(r.data.stamp, 100 + lba) << lba;
  }
}

TEST(FtlFaultTest, EraseFailDuringGcRetiresTheBlock) {
  ftl::FtlConfig c = FaultFtlConfig();
  c.delayed_deletion = false;  // plain overwrites invalidate immediately
  c.fault_plan.FailEraseAtOp(1);
  ftl::PageFtl ftl(c);

  // Fill the exported space, then overwrite it repeatedly to force GC.
  SimTime t = Seconds(1);
  Lba lbas = ftl.ExportedLbas();
  for (int pass = 0; pass < 4; ++pass) {
    for (Lba lba = 0; lba < lbas; ++lba) {
      ASSERT_TRUE(
          ftl.WritePage(lba, Page(static_cast<Lba>(pass) * 1000 + lba), t)
              .ok());
      t += Milliseconds(1);
    }
  }
  ASSERT_GT(ftl.Stats().gc_invocations, 0u);
  EXPECT_EQ(ftl.Stats().erase_fails, 1u);
  EXPECT_GE(ftl.RetiredBlockCount(), 1u);
  EXPECT_GE(ftl.Stats().blocks_retired, 1u);
  EXPECT_EQ(ftl.CheckInvariants(), "");

  // Every LBA still maps its final version.
  for (Lba lba = 0; lba < lbas; ++lba) {
    ftl::FtlResult r = ftl.ReadPage(lba, t);
    ASSERT_TRUE(r.ok()) << lba;
    EXPECT_EQ(r.data.stamp, 3000 + lba) << lba;
  }
}

TEST(FtlFaultTest, SpareExhaustionDegradesToReadOnlyWithoutAborting) {
  ftl::FtlConfig c;
  c.geometry.channels = 1;
  c.geometry.ways = 1;
  c.geometry.blocks_per_chip = 4;
  c.geometry.pages_per_block = 4;
  c.latency = nand::LatencyModel::Zero();
  c.exported_fraction = 0.25;  // 4 LBAs
  c.gc_reserve_blocks = 1;
  c.gc_low_watermark_blocks = 0;  // keep background GC out of the picture
  c.gc_high_watermark_blocks = 0;
  // Every program attempt from t = 10 s on fails (far more events than the
  // device has pages), so block retirement eats the whole spare pool.
  for (int i = 0; i < 64; ++i) c.fault_plan.FailProgramAt(Seconds(10));
  ftl::PageFtl ftl(c);

  // Healthy phase: fill the exported LBAs.
  for (Lba lba = 0; lba < 4; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, Page(lba), Seconds(1)).ok());
  }

  // Fault storm: the write burns through every candidate frontier and the
  // device degrades instead of asserting.
  ftl::FtlResult w = ftl.WritePage(0, Page(99), Seconds(11));
  EXPECT_EQ(w.status, ftl::FtlStatus::kNoSpace);
  EXPECT_TRUE(ftl.IsDegraded());
  EXPECT_TRUE(ftl.IsReadOnly());
  EXPECT_GT(ftl.Stats().program_fails, 0u);

  // Reads of everything written before the storm still complete.
  for (Lba lba = 0; lba < 4; ++lba) {
    ftl::FtlResult r = ftl.ReadPage(lba, Seconds(12));
    ASSERT_TRUE(r.ok()) << lba;
    EXPECT_EQ(r.data.stamp, lba) << lba;
  }
  // Further writes are refused with a status, not an abort.
  EXPECT_EQ(ftl.WritePage(1, Page(100), Seconds(13)).status,
            ftl::FtlStatus::kReadOnly);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

// ---------------------------------------------------------------------------
// Determinism: the probabilistic fault model is a pure function of the seed.

ftl::FtlStats RunSeededFaultWorkload(std::uint64_t seed,
                                     nand::NandCounters* nand_out) {
  ftl::FtlConfig c = FaultFtlConfig();
  c.errors.program_fail_prob = 0.02;
  c.errors.erase_fail_prob = 0.01;
  c.error_seed = seed;
  ftl::PageFtl ftl(c);

  Rng rng(seed * 31 + 1);
  SimTime t = 0;
  Lba lbas = ftl.ExportedLbas();
  for (int op = 0; op < 1500; ++op) {
    t += rng.BelowTime(5'000);
    Lba lba = rng.Below(lbas);
    if (rng.Below(100) < 80) {
      ftl.WritePage(lba, Page(static_cast<std::uint64_t>(op)), t);
    } else {
      ftl.TrimPage(lba, t);
    }
  }
  ftl.ReleaseExpired(t + Seconds(30));
  EXPECT_EQ(ftl.CheckInvariants(), "");
  if (nand_out != nullptr) *nand_out = ftl.Nand().Counters();
  return ftl.Stats();
}

TEST(FtlFaultTest, SameSeedSameFaultsSameStats) {
  nand::NandCounters nand_a, nand_b;
  ftl::FtlStats a = RunSeededFaultWorkload(77, &nand_a);
  ftl::FtlStats b = RunSeededFaultWorkload(77, &nand_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(nand_a, nand_b);
  // The workload actually exercised the fault paths.
  EXPECT_GT(a.program_fails + a.erase_fails, 0u);
  EXPECT_EQ(a.program_fails, a.write_redrives);

  // A different seed draws a different fault pattern (overwhelmingly likely
  // over ~1500 ops at these rates).
  ftl::FtlStats other = RunSeededFaultWorkload(78, nullptr);
  EXPECT_NE(a, other);
}

TEST(FtlFaultTest, DisabledFaultModelDrawsNoRandomness) {
  // With fault probabilities at 0 the write path must not consume RNG state:
  // enabling read-path ECC later must see the same stream as the seed run.
  ftl::FtlConfig c = FaultFtlConfig();
  ftl::PageFtl ftl(c);
  for (Lba lba = 0; lba < 32; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, Page(lba), Seconds(1)).ok());
  }
  EXPECT_EQ(ftl.Stats().program_fails, 0u);
  EXPECT_EQ(ftl.Stats().write_redrives, 0u);
  EXPECT_EQ(ftl.RetiredBlockCount(), 0u);
}

// ---------------------------------------------------------------------------
// I/O engine: status propagation and bounded read retry.

// Scripted device: fails the first `fail_count` dispatches of an LBA with
// kReadError, then succeeds. Counts Redrive calls separately so the test can
// tell retries from fresh traffic.
class FlakyReadDevice final : public io::DeviceTarget {
 public:
  explicit FlakyReadDevice(int fail_count) : fails_left_(fail_count) {}

  SimTime Now() const override { return now_; }

  io::DispatchResult Dispatch(const IoRequest& request,
                              std::uint64_t) override {
    ++dispatches_;
    return Execute(request);
  }

  io::DispatchResult Redrive(const IoRequest& request,
                             std::uint64_t) override {
    ++redrives_;
    return Execute(request);
  }

  int dispatches() const { return dispatches_; }
  int redrives() const { return redrives_; }

 private:
  io::DispatchResult Execute(const IoRequest& request) {
    SimTime start = request.time > now_ ? request.time : now_;
    now_ = start + Microseconds(50);
    if (request.mode == IoMode::kRead && fails_left_ > 0) {
      --fails_left_;
      return {false, io::DeviceStatus::kReadError, now_};
    }
    return {true, io::DeviceStatus::kOk, now_};
  }

  int fails_left_;
  int dispatches_ = 0;
  int redrives_ = 0;
  SimTime now_ = 0;
};

TEST(IoEngineFaultTest, TransientReadErrorRetriedTransparently) {
  FlakyReadDevice dev(1);  // first read fails once
  io::EngineConfig cfg;
  cfg.max_read_retries = 2;
  io::IoEngine engine(dev, cfg);

  ASSERT_TRUE(engine.TrySubmit(0, {1000, 5, 1, IoMode::kRead}));
  engine.Drain();

  std::optional<io::Completion> c = engine.PopCompletion(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->ok);
  EXPECT_EQ(c->status, io::DeviceStatus::kOk);
  EXPECT_EQ(c->retries, 1u);
  EXPECT_EQ(engine.Stats().read_retries, 1u);
  EXPECT_EQ(engine.Stats().completed_ok, 1u);
  EXPECT_EQ(engine.Stats().completed_error, 0u);
  EXPECT_EQ(dev.dispatches(), 1);
  EXPECT_EQ(dev.redrives(), 1);  // the retry went through Redrive, not Dispatch
}

TEST(IoEngineFaultTest, PersistentReadErrorPostsAfterBoundedRetries) {
  FlakyReadDevice dev(100);  // never recovers
  io::EngineConfig cfg;
  cfg.max_read_retries = 2;
  io::IoEngine engine(dev, cfg);

  ASSERT_TRUE(engine.TrySubmit(0, {1000, 5, 1, IoMode::kRead}));
  engine.Drain();

  std::optional<io::Completion> c = engine.PopCompletion(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(c->ok);
  EXPECT_EQ(c->status, io::DeviceStatus::kReadError);
  EXPECT_EQ(c->retries, 2u);
  EXPECT_EQ(engine.Stats().read_retries, 2u);
  EXPECT_EQ(engine.Stats().completed_error, 1u);
  EXPECT_EQ(dev.redrives(), 2);
}

TEST(IoEngineFaultTest, WriteErrorsAreNeverRetried) {
  class WriteFailDevice final : public io::DeviceTarget {
   public:
    SimTime Now() const override { return now_; }
    io::DispatchResult Dispatch(const IoRequest& request,
                                std::uint64_t) override {
      now_ = (request.time > now_ ? request.time : now_) + Microseconds(50);
      ++calls_;
      return {false, io::DeviceStatus::kNoSpace, now_};
    }
    int calls_ = 0;
    SimTime now_ = 0;
  } write_dev;

  io::EngineConfig cfg;
  cfg.max_read_retries = 2;
  io::IoEngine engine(write_dev, cfg);
  ASSERT_TRUE(engine.TrySubmit(0, {1000, 5, 1, IoMode::kWrite}));
  engine.Drain();

  std::optional<io::Completion> c = engine.PopCompletion(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(c->ok);
  EXPECT_EQ(c->status, io::DeviceStatus::kNoSpace);
  EXPECT_EQ(c->retries, 0u);
  EXPECT_EQ(write_dev.calls_, 1);
  EXPECT_EQ(engine.Stats().read_retries, 0u);
}

}  // namespace
}  // namespace insider
