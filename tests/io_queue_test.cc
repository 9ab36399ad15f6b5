#include <gtest/gtest.h>

#include <vector>

#include "io/arbiter.h"
#include "io/io_engine.h"
#include "io/ring_queue.h"

namespace insider::io {
namespace {

// Deterministic device: each request costs `cost` of virtual time per block,
// starting no earlier than its submit time. Records the dispatch order.
class FakeDevice final : public DeviceTarget {
 public:
  explicit FakeDevice(SimTime cost_per_block = Microseconds(100))
      : cost_(cost_per_block) {}

  SimTime Now() const override { return now_; }

  DispatchResult Dispatch(const IoRequest& request,
                          std::uint64_t stamp_base) override {
    (void)stamp_base;
    SimTime start = request.time > now_ ? request.time : now_;
    now_ = start + cost_ * request.length;
    order_.push_back(request);
    return {true, DeviceStatus::kOk, now_};
  }

  const std::vector<IoRequest>& Order() const { return order_; }

 private:
  SimTime cost_;
  SimTime now_ = 0;
  std::vector<IoRequest> order_;
};

TEST(RingQueueTest, PushPopWrapAround) {
  RingQueue<int> q(3);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_TRUE(q.Full());
  EXPECT_FALSE(q.TryPush(4));
  EXPECT_EQ(*q.Peek(), 1);
  EXPECT_EQ(q.TryPop(), 1);
  EXPECT_TRUE(q.TryPush(4));  // wraps
  EXPECT_EQ(q.TryPop(), 2);
  EXPECT_EQ(q.TryPop(), 3);
  EXPECT_EQ(q.TryPop(), 4);
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(RingQueueTest, WrapsRepeatedlyInFifoOrder) {
  RingQueue<int> q(3);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 20; ++round) {
    // Alternate one and two pushes per pop so head and tail cross the
    // wrap point at every offset.
    for (int k = 0; k <= round % 2; ++k) {
      if (q.TryPush(next_in)) ++next_in;
    }
    ASSERT_EQ(q.TryPop(), next_out++);
  }
  while (std::optional<int> v = q.TryPop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueueTest, ZeroCapacityRefusesEverything) {
  RingQueue<int> q(0);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.Full());
  EXPECT_FALSE(q.TryPush(1));
  EXPECT_EQ(q.Peek(), nullptr);
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(ArbiterTest, RoundRobinRotates) {
  QueueArbiter arb({}, {1, 1, 1});
  std::vector<std::size_t> ready{0, 1, 2};
  EXPECT_EQ(arb.Pick(ready), 0u);
  EXPECT_EQ(arb.Pick(ready), 1u);
  EXPECT_EQ(arb.Pick(ready), 2u);
  EXPECT_EQ(arb.Pick(ready), 0u);
  // A vanished queue is skipped without disturbing rotation.
  EXPECT_EQ(arb.Pick({0, 2}), 2u);
  EXPECT_EQ(arb.Pick({0, 2}), 0u);
}

TEST(ArbiterTest, WeightedRoundRobinHonorsWeights) {
  ArbiterConfig cfg;
  cfg.policy = ArbiterPolicy::kWeightedRoundRobin;
  cfg.burst = 1;
  QueueArbiter arb(cfg, {2, 1});
  std::vector<std::size_t> ready{0, 1};
  // Queue 0 (weight 2) gets two consecutive grants per rotation.
  EXPECT_EQ(arb.Pick(ready), 0u);
  EXPECT_EQ(arb.Pick(ready), 0u);
  EXPECT_EQ(arb.Pick(ready), 1u);
  EXPECT_EQ(arb.Pick(ready), 0u);
  EXPECT_EQ(arb.Pick(ready), 0u);
  EXPECT_EQ(arb.Pick(ready), 1u);
}

EngineConfig TwoQueues(std::size_t depth) {
  EngineConfig cfg;
  cfg.queue_count = 2;
  cfg.queue.sq_depth = depth;
  return cfg;
}

TEST(IoEngineTest, QueueFullBackpressureBlocksUntilCompletion) {
  FakeDevice dev;
  EngineConfig cfg;
  cfg.queue_count = 1;
  cfg.queue.sq_depth = 2;
  IoEngine engine(dev, cfg);

  EXPECT_TRUE(engine.TrySubmit(0, {1000, 0, 1, IoMode::kWrite}));
  EXPECT_TRUE(engine.TrySubmit(0, {2000, 1, 1, IoMode::kWrite}));
  // Outstanding limit reached: the producer is blocked...
  EXPECT_FALSE(engine.TrySubmit(0, {3000, 2, 1, IoMode::kWrite}));
  EXPECT_EQ(engine.Stats().sq_rejections, 1u);

  // ...and dispatching alone does not help: an executing command still
  // occupies its slot until the host reaps the completion.
  ASSERT_TRUE(engine.Step());  // dispatch lba 0
  EXPECT_EQ(engine.InFlight(), 1u);
  EXPECT_FALSE(engine.TrySubmit(0, {3000, 2, 1, IoMode::kWrite}));

  ASSERT_TRUE(engine.Step());  // lba 0 completes, posts to the CQ
  ASSERT_TRUE(engine.PopCompletion(0).has_value());
  EXPECT_TRUE(engine.TrySubmit(0, {3000, 2, 1, IoMode::kWrite}));
  EXPECT_EQ(engine.Pair(0).stats().submitted, 3u);
  EXPECT_EQ(engine.Pair(0).stats().rejected, 2u);
}

TEST(IoEngineTest, DispatchesInVirtualTimeOrderAcrossQueues) {
  FakeDevice dev(Microseconds(1));  // device easily keeps up
  IoEngine engine(dev, TwoQueues(8));

  // Interleaved submit times across the two queues.
  (void)engine.TrySubmit(0, {1000, 10, 1, IoMode::kRead});
  (void)engine.TrySubmit(0, {5000, 11, 1, IoMode::kRead});
  (void)engine.TrySubmit(1, {2000, 20, 1, IoMode::kRead});
  (void)engine.TrySubmit(1, {9000, 21, 1, IoMode::kRead});
  EXPECT_EQ(engine.Drain(), 4u);

  ASSERT_EQ(dev.Order().size(), 4u);
  EXPECT_EQ(dev.Order()[0].lba, 10u);
  EXPECT_EQ(dev.Order()[1].lba, 20u);
  EXPECT_EQ(dev.Order()[2].lba, 11u);
  EXPECT_EQ(dev.Order()[3].lba, 21u);
}

TEST(IoEngineTest, RoundRobinIsFairWithinOneTick) {
  // All commands share one submit time, so every dispatch decision is an
  // arbitration decision. Fairness: after 3k dispatches each of the 3
  // queues must have exactly k, and at no prefix may the spread exceed 1.
  FakeDevice dev;
  EngineConfig cfg;
  cfg.queue_count = 3;
  cfg.queue.sq_depth = 8;
  IoEngine engine(dev, cfg);

  for (int i = 0; i < 6; ++i) {
    for (QueueId q = 0; q < 3; ++q) {
      ASSERT_TRUE(
          engine.TrySubmit(
              q, {1000, std::uint64_t{q} * 100 + static_cast<std::uint64_t>(i),
                  1, IoMode::kRead}));
    }
  }

  std::vector<std::uint64_t> granted(3, 0);
  for (int step = 0; step < 18; ++step) {
    ASSERT_TRUE(engine.Step());
    for (QueueId q = 0; q < 3; ++q) {
      granted[q] = engine.Pair(q).stats().dispatched;
    }
    std::uint64_t lo = std::min({granted[0], granted[1], granted[2]});
    std::uint64_t hi = std::max({granted[0], granted[1], granted[2]});
    EXPECT_LE(hi - lo, 1u) << "unfair at step " << step;
  }
  EXPECT_EQ(granted[0], 6u);
  EXPECT_EQ(granted[1], 6u);
  EXPECT_EQ(granted[2], 6u);
}

TEST(IoEngineTest, WeightedRoundRobinSkewsServiceByWeight) {
  FakeDevice dev;
  EngineConfig cfg;
  cfg.queue_count = 2;
  cfg.per_queue = {QueueConfig{8, 0, 3}, QueueConfig{8, 0, 1}};
  cfg.arbiter.policy = ArbiterPolicy::kWeightedRoundRobin;
  IoEngine engine(dev, cfg);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.TrySubmit(0, {1000, 0, 1, IoMode::kRead}));
    ASSERT_TRUE(engine.TrySubmit(1, {1000, 1, 1, IoMode::kRead}));
  }
  // First 8 dispatches: weight-3 queue gets 6, weight-1 queue gets 2.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(engine.Step());
  EXPECT_EQ(engine.Pair(0).stats().dispatched, 6u);
  EXPECT_EQ(engine.Pair(1).stats().dispatched, 2u);
}

TEST(IoEngineTest, FullCompletionQueueStallsOnlyThatPair) {
  FakeDevice dev;
  EngineConfig cfg;
  cfg.queue_count = 2;
  cfg.per_queue = {QueueConfig{4, 1, 1}, QueueConfig{4, 4, 1}};
  IoEngine engine(dev, cfg);

  (void)engine.TrySubmit(0, {1000, 0, 1, IoMode::kRead});
  (void)engine.TrySubmit(0, {1000, 1, 1, IoMode::kRead});
  (void)engine.TrySubmit(1, {1000, 2, 1, IoMode::kRead});

  ASSERT_TRUE(engine.Step());  // dispatch queue 0: reserves its 1 CQ slot
  ASSERT_TRUE(engine.Step());  // queue 0 stalled -> queue 1 proceeds
  EXPECT_EQ(engine.Pair(0).stats().dispatched, 1u);
  EXPECT_EQ(engine.Pair(1).stats().dispatched, 1u);
  EXPECT_GT(engine.Stats().cq_stalls, 0u);

  ASSERT_TRUE(engine.Step());   // queue 0's completion posts
  ASSERT_TRUE(engine.Step());   // queue 1's completion posts
  EXPECT_FALSE(engine.Step());  // queue 0's second command: CQ still full
  EXPECT_EQ(engine.Pair(0).stats().dispatched, 1u);

  ASSERT_TRUE(engine.PopCompletion(0).has_value());
  ASSERT_TRUE(engine.Step());  // unblocked
  EXPECT_EQ(engine.Pair(0).stats().dispatched, 2u);
}

TEST(IoEngineTest, CompletionLatenciesAreMonotoneAndConsistent) {
  FakeDevice dev(Microseconds(250));
  EngineConfig cfg;
  cfg.queue_count = 1;
  cfg.queue.sq_depth = 16;
  IoEngine engine(dev, cfg);

  // Burst arriving faster than the device serves: queueing delay builds.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.TrySubmit(
        0, {1000 + i * 10, static_cast<Lba>(i), 1, IoMode::kWrite}));
  }
  engine.Drain();

  SimTime prev_complete = 0;
  while (std::optional<Completion> c = engine.PopCompletion(0)) {
    EXPECT_GE(c->complete_time, prev_complete);
    EXPECT_GE(c->dispatch_time, c->submit_time);
    EXPECT_GE(c->complete_time, c->dispatch_time);
    EXPECT_GE(c->Latency(), Microseconds(250));
    EXPECT_EQ(c->QueueDelay(), c->dispatch_time - c->submit_time);
    prev_complete = c->complete_time;
  }
}

}  // namespace
}  // namespace insider::io
