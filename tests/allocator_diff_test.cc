// Differential test of the O(1) ready-chip allocator.
//
// LinearScanPolicy below is the striped NextChip the FTL's ready bitmap
// replaced: from its cursor it probes PolicyView::ChipCanAllocate chip by
// chip. ComparingPolicy asks both it and the bitmap-backed
// StripedAllocationPolicy for every allocation the FTL makes (host writes,
// tombstones, GC copies, retirement evacuations, re-drives) and counts any
// disagreement. Random op streams drive the FTL through program and erase
// faults, GC, block retirement and power cycles, on the full-scan rebuild
// path and on the checkpoint path, and the invariant auditor (whose A1
// check compares every ready bit with ChipCanAllocate) runs after each op.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "nand/geometry.h"

namespace insider::ftl {
namespace {

/// The scan the ready bitmap replaced, kept verbatim in effect.
class LinearScanPolicy {
 public:
  std::optional<std::uint32_t> NextChip(const PolicyView& view,
                                        std::uint64_t& skipped) {
    const std::uint32_t chips = view.ChipCount();
    for (std::uint32_t tries = 0; tries < chips; ++tries) {
      std::uint32_t chip = next_chip_;
      if (++next_chip_ >= chips) next_chip_ = 0;
      if (view.ChipCanAllocate(chip)) return chip;
      ++skipped;
    }
    return std::nullopt;
  }

 private:
  std::uint32_t next_chip_ = 0;
};

struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t skipped = 0;  ///< chips the scan probed and passed over
};

class ComparingPolicy final : public AllocationPolicy {
 public:
  explicit ComparingPolicy(Tally& tally) : tally_(tally) {}
  const char* Name() const override { return "striped"; }
  std::optional<std::uint32_t> NextChip(const PolicyView& view) override {
    const std::optional<std::uint32_t> got = striped_.NextChip(view);
    const std::optional<std::uint32_t> want =
        reference_.NextChip(view, tally_.skipped);
    ++tally_.calls;
    if (got != want) ++tally_.mismatches;
    return want;
  }

 private:
  Tally& tally_;
  StripedAllocationPolicy striped_;
  LinearScanPolicy reference_;
};

struct Scenario {
  const char* name;
  nand::Geometry geometry;
  bool checkpoints;
};

class AllocatorDiffTest
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(AllocatorDiffTest, BitmapPicksTheScansChipThroughFaultsGcAndRebuilds) {
  const auto& [scenario, seed] = GetParam();
  FtlConfig cfg;
  cfg.geometry = scenario.geometry;
  cfg.latency = nand::LatencyModel::Zero();
  cfg.exported_fraction = 0.7;
  cfg.retention_window = Milliseconds(40);
  cfg.errors.program_fail_prob = 0.01;
  cfg.errors.erase_fail_prob = 0.01;
  cfg.error_seed = seed;
  cfg.fault_plan.FailProgramAtOp(3).FailProgramAtOp(50).FailEraseAtOp(2);
  if (scenario.checkpoints) {
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.journal_records_per_page = 16;
    cfg.checkpoint.journal_blocks_per_region = 2;
    cfg.checkpoint.checkpoint_blocks_per_buffer = 4;
  }
  PageFtl ftl(cfg);
  ASSERT_TRUE(ftl.GeometryStatus().ok());
  Tally tally;
  ftl.SetAllocationPolicy(std::make_unique<ComparingPolicy>(tally));

  Rng rng(seed * 0x9e37 + 11);
  const Lba n = ftl.ExportedLbas();
  SimTime t = 0;
  std::uint64_t fast_rebuilds = 0;
  std::uint64_t full_rebuilds = 0;
  for (int op = 0; op < 6000 && !ftl.IsDegraded(); ++op) {
    t += rng.BelowTime(Microseconds(400));
    const Lba lba = rng.Below(n);
    const double dice = rng.Uniform();
    if (dice < 0.70) {
      (void)ftl.WritePage(lba, {static_cast<std::uint64_t>(op), {}}, t);
    } else if (dice < 0.80) {
      (void)ftl.TrimPage(lba, t);
    } else if (dice < 0.90) {
      (void)ftl.ReadPage(lba, t);
    } else if (dice < 0.95) {
      (void)ftl.IdleCollect(t, 2);
    } else if (dice < 0.98) {
      (void)ftl.BackgroundCollect(t, 2);
    } else if (dice < 0.99) {
      if (scenario.checkpoints) t = ftl.TakeCheckpoint(t);
    } else {
      t += Milliseconds(1);
      const PageFtl::RebuildReport report = ftl.RebuildFromNand(t);
      (report.used_checkpoint ? fast_rebuilds : full_rebuilds) += 1;
    }
    const std::string issue = ftl.CheckInvariants();
    ASSERT_TRUE(issue.empty()) << "op " << op << ": " << issue;
    ASSERT_EQ(tally.mismatches, 0u) << "op " << op;
  }

  EXPECT_EQ(tally.mismatches, 0u);
  // The stream reached every path the bitmap has to follow.
  EXPECT_GT(tally.calls, 1000u);
  EXPECT_GT(tally.skipped, 0u) << "no allocation ever skipped a full chip";
  EXPECT_GT(ftl.Stats().program_fails, 0u);
  EXPECT_GT(ftl.Stats().gc_erases, 0u);
  EXPECT_GT(ftl.Stats().blocks_retired, 0u);
  if (scenario.checkpoints) {
    EXPECT_GT(fast_rebuilds, 0u) << "no rebuild took the checkpoint path";
  } else {
    EXPECT_GT(full_rebuilds, 0u);
  }
}

const Scenario kScenarios[] = {
    // 15 chips: one bitmap word, a chip count that is not a power of two.
    {"three_by_five",
     nand::Geometry{.channels = 3,
                    .ways = 5,
                    .blocks_per_chip = 12,
                    .pages_per_block = 8,
                    .page_size = 4096},
     false},
    {"three_by_five_checkpointed",
     nand::Geometry{.channels = 3,
                    .ways = 5,
                    .blocks_per_chip = 12,
                    .pages_per_block = 8,
                    .page_size = 4096},
     true},
    // 80 chips of 4 blocks: two bitmap words, and pools that run dry.
    {"eighty_chips",
     nand::Geometry{.channels = 8,
                    .ways = 10,
                    .blocks_per_chip = 4,
                    .pages_per_block = 6,
                    .page_size = 4096},
     false},
    {"eighty_chips_checkpointed",
     nand::Geometry{.channels = 8,
                    .ways = 10,
                    .blocks_per_chip = 5,
                    .pages_per_block = 6,
                    .page_size = 4096},
     true},
};

INSTANTIATE_TEST_SUITE_P(
    Streams, AllocatorDiffTest,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace insider::ftl
