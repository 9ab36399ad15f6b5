// The benchmark's own tests: the timing decorators are transparent, the
// detector replay is exact, and the percentile helper is right.
#include <gtest/gtest.h>

#include <vector>

#include "quantile.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A short seed_gc: 160 virtual seconds of host traffic, about 0.16 M
// commands, on a device preconditioned to GC steady state.
RunSpec SmallSeedGc(bool traced) {
  RunSpec spec;
  spec.seed = 11;
  spec.seconds = 4;
  spec.traced = traced;
  return spec;
}

TEST(PerfbenchSeams, DecoratorsAreTransparentOnSeedGc) {
  const Outcome plain = RunSeedGc(SmallSeedGc(false));
  const Outcome traced = RunSeedGc(SmallSeedGc(true));
  ASSERT_TRUE(plain.errors.empty());
  ASSERT_TRUE(traced.errors.empty());
  ASSERT_EQ(plain.ftl.size(), 1u);
  EXPECT_GT(plain.ftl[0].gc_erases, 0u);
  EXPECT_TRUE(plain.ftl == traced.ftl);
  EXPECT_EQ(plain.completion_digest, traced.completion_digest);
  EXPECT_EQ(plain.read_us, traced.read_us);
  EXPECT_EQ(plain.write_us, traced.write_us);
  EXPECT_EQ(plain.engine.dispatched, traced.engine.dispatched);
  // The traced run saw every seam.
  EXPECT_EQ(traced.trace.dispatch_calls, traced.engine.dispatched);
  EXPECT_GT(traced.trace.victim_calls, 0u);
  EXPECT_GT(traced.trace.alloc_calls, 0u);
  EXPECT_GT(traced.trace.firmware_calls, 0u);
}

TEST(PerfbenchSeams, DetectorReplayIsExactOnSeedGc) {
  const Outcome traced = RunSeedGc(SmallSeedGc(true));
  ASSERT_TRUE(traced.trace.replayed);
  EXPECT_TRUE(traced.trace.replay_exact);
  EXPECT_EQ(traced.trace.headers, traced.engine.dispatched);
  EXPECT_EQ(traced.trace.instances, 1u);  // one shared detector
  EXPECT_GE(traced.trace.slices_closed, 400u);
}

TEST(PerfbenchQuantile, NearestRankOnKnownInputs) {
  std::vector<int> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // 1000..1
  EXPECT_EQ(Quantile(v, 0.5), 500);
  EXPECT_EQ(Quantile(v, 0.99), 990);
  EXPECT_EQ(Quantile(v, 0.999), 999);
  EXPECT_EQ(Quantile(v, 1.0), 1000);
  std::vector<int> one = {7};
  EXPECT_EQ(Quantile(one, 0.999), 7);
  std::vector<int> none;
  EXPECT_EQ(Quantile(none, 0.5), 0);
}

TEST(PerfbenchQuantile, TailLevelKeepsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(10000, 0.999), 10u);
  EXPECT_EQ(SamplesBeyond(9999, 0.999), 9u);
  EXPECT_DOUBLE_EQ(HighestTailLevel(10000), 0.999);
  EXPECT_DOUBLE_EQ(HighestTailLevel(9999), 0.99);
  EXPECT_DOUBLE_EQ(HighestTailLevel(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestTailLevel(999), 0.9);
  EXPECT_DOUBLE_EQ(HighestTailLevel(50), 0.5);
  const Timing t = Summarize(std::vector<double>{5, 1, 4, 2, 3}, 0.9);
  EXPECT_EQ(t.samples, 5u);
  EXPECT_DOUBLE_EQ(t.p50, 3.0);
  EXPECT_DOUBLE_EQ(t.tail, 5.0);
}

}  // namespace
}  // namespace perfbench
