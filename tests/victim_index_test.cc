// The greedy victim index must choose exactly the block the full-device
// greedy scan chose: fewest movable pages, then fewest erases, then lowest
// block id. These tests check the index against a brute-force reference on
// its own, and inside a running FTL on every selection the GC makes —
// across conventional and delayed-deletion traffic, program/erase faults,
// power-loss rebuilds and archived versions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "ftl/victim_index.h"

namespace insider::ftl {
namespace {

TEST(VictimIndexTest, OrdersByMovableThenErasesThenBlockId) {
  VictimIndex index;
  index.Reset(16, 8);
  index.Place(5, 3, 2);
  index.Place(9, 3, 1);
  index.Place(2, 3, 1);
  index.Place(7, 4, 0);
  EXPECT_EQ(index.Lowest(8), 2u);  // movable 3, erases 1, lowest id
  index.Remove(2);
  EXPECT_EQ(index.Lowest(8), 9u);
  index.Place(9, 5, 1);  // re-keyed by a movable change
  EXPECT_EQ(index.Lowest(8), 5u);
  EXPECT_EQ(index.Lowest(2), VictimIndex::kNone);  // cap below every key
  index.Place(7, 0, 0);
  EXPECT_EQ(index.Lowest(0), 7u);
  EXPECT_EQ(index.Size(), 3u);
  index.Clear();
  EXPECT_EQ(index.Size(), 0u);
  EXPECT_FALSE(index.Contains(5));
  EXPECT_EQ(index.Lowest(8), VictimIndex::kNone);
}

TEST(VictimIndexTest, RandomOperationsMatchBruteForce) {
  constexpr std::uint32_t kBlocks = 300;
  constexpr std::uint32_t kPages = 130;  // buckets span three bitmap words
  VictimIndex index;
  index.Reset(kBlocks, kPages);
  // block -> (movable, erases); the reference answer is a linear scan.
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> ref;
  Rng rng(0x1DE7);
  for (int step = 0; step < 20000; ++step) {
    const auto block = static_cast<std::uint32_t>(rng.Below(kBlocks));
    if (rng.Chance(0.3)) {
      index.Remove(block);
      ref.erase(block);
    } else {
      // A member keeps its erase count; only its movable count moves.
      const auto erases = ref.contains(block)
                              ? ref[block].second
                              : static_cast<std::uint32_t>(rng.Below(6));
      const auto movable = static_cast<std::uint32_t>(rng.Below(kPages + 1));
      index.Place(block, movable, erases);
      ref[block] = {movable, erases};
    }
    const auto cap = static_cast<std::uint32_t>(rng.Below(kPages + 1));
    std::uint32_t want = VictimIndex::kNone;
    std::tuple<std::uint32_t, std::uint32_t, std::uint32_t> best{};
    for (const auto& [b, key] : ref) {
      if (key.first > cap) continue;
      std::tuple<std::uint32_t, std::uint32_t, std::uint32_t> t{
          key.first, key.second, b};
      if (want == VictimIndex::kNone || t < best) {
        best = t;
        want = b;
      }
    }
    ASSERT_EQ(index.Lowest(cap), want) << "step " << step;
    ASSERT_EQ(index.Size(), ref.size());
  }
}

/// The greedy scan the index replaced, written against PolicyView's
/// per-block accessors.
std::uint32_t ScanGreedy(const PolicyView& view, std::uint32_t max_movable) {
  std::uint32_t victim = kNoVictim;
  std::uint32_t best_movable = max_movable + 1;
  std::uint64_t best_erases = 0;
  for (std::uint32_t b = 0; b < view.TotalBlocks(); ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) {
      continue;
    }
    const std::uint32_t movable = view.MovablePages(b);
    if (movable < best_movable ||
        (movable == best_movable && victim != kNoVictim &&
         view.EraseCount(b) < best_erases)) {
      best_movable = movable;
      best_erases = view.EraseCount(b);
      victim = b;
    }
  }
  return victim;
}

/// Greedy policy that also runs the reference scan on every selection and
/// counts disagreements.
class CheckedGreedyPolicy final : public VictimPolicy {
 public:
  const char* Name() const override { return "checked-greedy"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override {
    const std::uint32_t got = inner_.SelectVictim(view, max_movable);
    ++selections_;
    if (got != ScanGreedy(view, max_movable)) ++mismatches_;
    if (got != kNoVictim) ++found_;
    return got;
  }
  std::uint64_t selections_ = 0;
  std::uint64_t found_ = 0;
  std::uint64_t mismatches_ = 0;

 private:
  GreedyVictimPolicy inner_;
};

FtlConfig MediumConfig() {
  FtlConfig cfg;
  cfg.geometry.channels = 2;
  cfg.geometry.ways = 2;
  cfg.geometry.blocks_per_chip = 32;
  cfg.geometry.pages_per_block = 16;
  cfg.latency = nand::LatencyModel::Zero();
  return cfg;
}

CheckedGreedyPolicy& InstallChecked(PageFtl& ftl) {
  auto policy = std::make_unique<CheckedGreedyPolicy>();
  CheckedGreedyPolicy& ref = *policy;
  ftl.SetVictimPolicy(std::move(policy));
  return ref;
}

/// Fill to `fill` of the exported space, then random overwrites, trims and
/// reads, with idle collection in the gaps so every GC entry point runs.
SimTime Churn(PageFtl& ftl, std::uint64_t seed, int ops, double fill,
              SimTime t) {
  const Lba n = ftl.ExportedLbas();
  Rng rng(seed);
  for (Lba lba = 0; lba < static_cast<Lba>(static_cast<double>(n) * fill);
       ++lba) {
    (void)ftl.WritePage(lba, {lba, {}}, t);
  }
  for (int i = 0; i < ops; ++i) {
    t += Milliseconds(1);
    const Lba lba = rng.Below(n);
    const std::uint64_t op = rng.Below(20);
    if (op < 15) {
      (void)ftl.WritePage(lba, {rng(), {}}, t);
    } else if (op < 17) {
      (void)ftl.TrimPage(lba, t);
    } else if (op < 19) {
      (void)ftl.ReadPage(lba, t);
    } else if (ftl.BackgroundGcNeeded()) {
      ftl.BackgroundCollect(t, 2);
    } else {
      ftl.IdleCollect(t, 1, 4);
    }
  }
  return t;
}

void ExpectAgreement(const CheckedGreedyPolicy& policy, const PageFtl& ftl) {
  EXPECT_GT(policy.found_, 100u);
  EXPECT_EQ(policy.mismatches_, 0u) << "of " << policy.selections_;
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(VictimIndexFtlTest, ConventionalGcMatchesScan) {
  FtlConfig cfg = MediumConfig();
  cfg.delayed_deletion = false;
  PageFtl ftl(cfg);
  CheckedGreedyPolicy& policy = InstallChecked(ftl);
  Churn(ftl, 1, 20000, 0.9, 0);
  ExpectAgreement(policy, ftl);
}

TEST(VictimIndexFtlTest, DelayedDeletionGcMatchesScan) {
  FtlConfig cfg = MediumConfig();
  cfg.retention_window = Milliseconds(800);
  PageFtl ftl(cfg);
  CheckedGreedyPolicy& policy = InstallChecked(ftl);
  Churn(ftl, 2, 20000, 0.7, 0);
  ExpectAgreement(policy, ftl);
}

TEST(VictimIndexFtlTest, FaultRetirementsMatchScan) {
  FtlConfig cfg = MediumConfig();
  cfg.retention_window = Milliseconds(500);
  cfg.errors.program_fail_prob = 4e-3;
  cfg.errors.erase_fail_prob = 4e-3;
  PageFtl ftl(cfg);
  CheckedGreedyPolicy& policy = InstallChecked(ftl);
  Churn(ftl, 3, 15000, 0.6, 0);
  EXPECT_GT(ftl.Stats().blocks_retired, 0u);
  ExpectAgreement(policy, ftl);
}

TEST(VictimIndexFtlTest, PowerLossRebuildsReDeriveTheIndex) {
  for (bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint fast path" : "full scan");
    FtlConfig cfg = MediumConfig();
    cfg.retention_window = Milliseconds(800);
    cfg.checkpoint.enabled = checkpoint;
    PageFtl ftl(cfg);
    CheckedGreedyPolicy& policy = InstallChecked(ftl);
    SimTime t = Churn(ftl, 4, 6000, 0.7, 0);
    if (checkpoint) ftl.TakeCheckpoint(t);
    t = Churn(ftl, 5, 3000, 0.0, t);
    t += Seconds(1);
    (void)ftl.RebuildFromNand(t);
    ASSERT_EQ(ftl.CheckInvariants(), "");
    Churn(ftl, 6, 6000, 0.0, t);
    ExpectAgreement(policy, ftl);
  }
}

TEST(VictimIndexFtlTest, ArchivedVersionsMatchScan) {
  FtlConfig cfg = MediumConfig();
  cfg.retention_window = Milliseconds(500);
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 64, 4, Seconds(5)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  CheckedGreedyPolicy& policy = InstallChecked(ftl);
  Churn(ftl, 7, 15000, 0.6, 0);
  EXPECT_GT(ftl.Stats().archived_versions, 0u);
  ExpectAgreement(policy, ftl);
}

}  // namespace
}  // namespace insider::ftl
