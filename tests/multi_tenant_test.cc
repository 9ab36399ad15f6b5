#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "host/experiment.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "workload/multi_tenant.h"

namespace insider::host {
namespace {

SsdConfig SmallSsd() {
  SsdConfig c;
  c.ftl.geometry = nand::TestGeometry();
  c.ftl.latency = nand::LatencyModel::Zero();
  return c;
}

/// Tree voting ransomware iff OWIO > 30 (same shape as ssd_test.cc).
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

wl::TenantSpec WriterTenant(const std::string& name, Lba base,
                            std::size_t count, std::uint64_t stamp_base,
                            SimTime start, SimTime gap) {
  wl::TenantSpec t;
  t.name = name;
  t.stamp_base = stamp_base;
  for (std::size_t i = 0; i < count; ++i) {
    t.requests.push_back({start + CostOf(i, gap),
                          base + i, 1, IoMode::kWrite});
  }
  return t;
}

TEST(MultiTenantTest, TenantsWriteDisjointRegionsThroughQueuePairs) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("a", 0, 16, 1000, 1000, 500));
  tenants.push_back(WriterTenant("b", 100, 16, 2000, 1200, 500));

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 4;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 16u);
  EXPECT_EQ(report.tenants[1].completed, 16u);
  EXPECT_EQ(report.tenants[0].errors, 0u);
  EXPECT_EQ(report.tenants[1].errors, 0u);
  EXPECT_EQ(report.total_dispatched, 32u);

  // Each block's payload stamp attributes it to its tenant.
  SimTime now = ssd.Clock().Now();
  for (Lba i = 0; i < 16; ++i) {
    ftl::FtlResult a = ssd.Ftl().ReadPage(i, now);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.data.stamp, 1000u + i);
    ftl::FtlResult b = ssd.Ftl().ReadPage(100 + i, now);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.data.stamp, 2000u + i);
  }
}

TEST(MultiTenantTest, QueueFullBackpressureStallsProducer) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  // 12 requests all submitted at t=1000 into a depth-1 ring: the host must
  // stall on every command after the first.
  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("bursty", 0, 12, 0, 1000, 0));

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  ecfg.queue.sq_depth = 1;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  EXPECT_EQ(report.tenants[0].completed, 12u);
  EXPECT_GT(report.tenants[0].stall_events, 0u);
  EXPECT_EQ(engine.Stats().sq_rejections, report.tenants[0].stall_events);
}

TEST(MultiTenantTest, CompletionTimesMonotoneAndMatchDeviceClock) {
  SsdConfig cfg = SmallSsd();
  cfg.ftl.latency = nand::LatencyModel{};  // real NAND latencies
  Ssd ssd(cfg, SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("w0", 0, 24, 0, 1000, 50));
  tenants.push_back(WriterTenant("w1", 64, 24, 5000, 1000, 50));

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 8;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  for (const wl::TenantResult& t : report.tenants) {
    ASSERT_EQ(t.complete_times.size(), t.completed);
    SimTime prev = 0;
    for (std::size_t i = 0; i < t.complete_times.size(); ++i) {
      EXPECT_GE(t.complete_times[i], prev) << t.name << " cmd " << i;
      EXPECT_GE(t.latencies[i], 0) << t.name << " cmd " << i;
      prev = t.complete_times[i];
    }
    EXPECT_EQ(t.last_complete_time, prev);
    // Completion stamps are FTL media times. Dispatch is pipelined, so they
    // can run ahead of the submission-side device clock but never ahead of
    // the report's end time.
    EXPECT_LE(t.last_complete_time, report.end_time);
  }
  EXPECT_EQ(report.end_time,
            std::max(report.tenants[0].last_complete_time,
                     report.tenants[1].last_complete_time));
}

TEST(MultiTenantTest, MoreTenantsThanQueuePairsMultiplexes) {
  // Regression: the driver used to assert QueueCount() >= tenant count —
  // compiled out in release builds, where extra tenants silently drove
  // out-of-range queue ids. Tenants now multiplex (tenant i -> pair
  // i % queues) and completions are attributed by nsid, not queue.
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  for (std::size_t i = 0; i < 5; ++i) {
    tenants.push_back(WriterTenant(
        "t" + std::to_string(i), static_cast<Lba>(40 * i), 8, 1000 * (i + 1),
        Microseconds(1000) + CostOf(i, 100), 300));
  }

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;  // fewer pairs than tenants
  ecfg.queue.sq_depth = 4;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  ASSERT_EQ(report.status, wl::MultiTenantStatus::kOk);
  ASSERT_EQ(report.tenants.size(), 5u);
  SimTime now = ssd.Clock().Now();
  for (std::size_t i = 0; i < 5; ++i) {
    const wl::TenantResult& t = report.tenants[i];
    EXPECT_EQ(t.completed, 8u) << t.name;
    EXPECT_EQ(t.errors, 0u) << t.name;
    EXPECT_EQ(t.nsid, static_cast<std::uint32_t>(i) + 1);
    // Ring-sharing never mixes attribution: each tenant's stamps landed on
    // its own LBAs.
    for (Lba b = 0; b < 8; ++b) {
      ftl::FtlResult rd = ssd.Ftl().ReadPage(static_cast<Lba>(40 * i) + b, now);
      ASSERT_TRUE(rd.ok());
      EXPECT_EQ(rd.data.stamp, 1000 * (i + 1) + b);
    }
  }
}

TEST(MultiTenantTest, DuplicateNamespaceIsTypedRefusal) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("a", 0, 4, 1000, 1000, 100));
  tenants.push_back(WriterTenant("b", 100, 4, 2000, 1000, 100));
  tenants[0].nsid = 7;
  tenants[1].nsid = 7;  // collision: completions would be unattributable

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  EXPECT_EQ(report.status, wl::MultiTenantStatus::kDuplicateNamespace);
  EXPECT_STREQ(wl::MultiTenantStatusName(report.status),
               "duplicate-namespace");
  // Refused up front: nothing was submitted, the report is a zero span.
  EXPECT_EQ(report.total_dispatched, 0u);
  EXPECT_EQ(report.end_time, report.first_submit_time);
  for (const wl::TenantResult& t : report.tenants) {
    EXPECT_EQ(t.submitted, 0u) << t.name;
  }
}

TEST(MultiTenantTest, ZeroDepthQueueIsTypedRefusal) {
  // A depth-0 ring refuses every submission, so the tenants could never
  // drain; the run must refuse up front instead of spinning forever.
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);
  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("a", 0, 4, 0, 1000, 100));
  tenants.push_back(WriterTenant("b", 100, 4, 0, 1000, 100));

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.per_queue = {io::QueueConfig{}, io::QueueConfig{}};
  ecfg.per_queue[1].sq_depth = 0;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantReport report = wl::MultiTenantDriver(tenants).Run(engine);
  EXPECT_EQ(report.status, wl::MultiTenantStatus::kZeroDepthQueue);
  EXPECT_STREQ(wl::MultiTenantStatusName(report.status), "zero-depth-queue");
  EXPECT_EQ(engine.Stats().submit_calls, 0u);
  EXPECT_EQ(report.total_dispatched, 0u);
  EXPECT_EQ(report.end_time, report.first_submit_time);
  for (const wl::TenantResult& t : report.tenants) {
    EXPECT_EQ(t.submitted, 0u) << t.name;
    EXPECT_EQ(t.stall_events, 0u) << t.name;
  }
}

TEST(MultiTenantTest, SampleRingCapKeepsRunningStatsExact) {
  SsdConfig cfg = SmallSsd();
  cfg.ftl.latency = nand::LatencyModel{};  // nonzero latencies to aggregate
  Ssd ssd(cfg, SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  tenants.push_back(WriterTenant("w", 0, 24, 0, 1000, 50));

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  ecfg.queue.sq_depth = 8;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantOptions opts;
  opts.sample_limit = 6;
  wl::MultiTenantDriver driver(std::move(tenants), opts);
  wl::MultiTenantReport report = driver.Run(engine);

  const wl::TenantResult& t = report.tenants[0];
  EXPECT_EQ(t.completed, 24u);
  // The rings keep only the newest samples...
  EXPECT_EQ(t.latencies.size(), 6u);
  EXPECT_EQ(t.complete_times.size(), 6u);
  EXPECT_EQ(t.samples_dropped, 18u);
  // ...but the streaming aggregate saw every completion.
  EXPECT_EQ(t.latency_us.Count(), 24u);
  // The surviving window is the tail: its newest entry is the last
  // completion the run produced.
  EXPECT_EQ(t.complete_times.back(), t.last_complete_time);
}

TEST(MultiTenantTest, EmptyRunPinsEndTimeToZeroSpan) {
  Ssd ssd(SmallSsd(), SimpleTree());
  SsdTarget target(ssd);

  std::vector<wl::TenantSpec> tenants;
  wl::TenantSpec idle;
  idle.name = "idle";  // a tenant with no requests at all
  tenants.push_back(idle);

  io::EngineConfig ecfg;
  ecfg.queue_count = 1;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);

  // Regression: end_time stayed 0 while first_submit_time defaulted past
  // it, so the unsigned span underflowed and TotalIops reported garbage.
  EXPECT_EQ(report.status, wl::MultiTenantStatus::kOk);
  EXPECT_EQ(report.end_time, report.first_submit_time);
  EXPECT_EQ(report.TotalIops(), 0.0);
}

TEST(MultiTenantTest, InterleavedRansomwareStillRaisesAlarm) {
  InterleavedConfig cfg;
  cfg.benign_tenants = 3;
  cfg.ransomware = "WannaCry";
  cfg.duration = Seconds(30);
  cfg.ransom_start = Seconds(8);
  cfg.seed = 42;
  InterleavedResult r =
      RunInterleavedDetection(core::PretrainedTree(), cfg);

  EXPECT_TRUE(r.alarm);
  EXPECT_GE(r.max_score, cfg.detector.score_threshold);
  ASSERT_EQ(r.report.tenants.size(), 4u);
  EXPECT_TRUE(r.report.tenants.back().is_ransomware);
  // The attack was detected while it ran, not after.
  ASSERT_TRUE(r.alarm_time.has_value());
  EXPECT_GE(*r.alarm_time, cfg.ransom_start);
  EXPECT_GT(r.detection_latency, 0);
}

TEST(MultiTenantTest, BenignTenantsAloneStayBelowThreshold) {
  InterleavedConfig cfg;
  cfg.benign_tenants = 4;
  cfg.ransomware.clear();  // control run
  cfg.duration = Seconds(30);
  cfg.seed = 42;
  InterleavedResult r =
      RunInterleavedDetection(core::PretrainedTree(), cfg);

  EXPECT_FALSE(r.alarm);
  EXPECT_LT(r.max_score, cfg.detector.score_threshold);
  for (const wl::TenantResult& t : r.report.tenants) {
    EXPECT_EQ(t.errors, 0u) << t.name;
  }
}

/// A device with deterministic per-lane service times and no NAND: keeps the
/// driver-equivalence test about the driver and the engine alone.
class LaneDevice final : public io::DeviceTarget {
 public:
  SimTime Now() const override { return now_; }
  io::DispatchResult Dispatch(const IoRequest& r, std::uint64_t) override {
    now_ = std::max(now_, r.time);
    SimTime& busy = busy_[r.lba % 3];
    busy = std::max(busy, now_) + 40 + CostOf(r.lba % 5, 15) +
           (r.mode == IoMode::kWrite ? 90 : 0);
    return {true, io::DeviceStatus::kOk, busy};
  }

 private:
  SimTime now_ = 0;
  SimTime busy_[3] = {};
};

/// The driver's former host phase, verbatim in effect: every pick scans all
/// tenants for the earliest next request on an unblocked pair.
wl::MultiTenantReport ReferenceRun(const std::vector<wl::TenantSpec>& tenants,
                                   io::IoEngine& engine) {
  const std::size_t n = tenants.size();
  const std::size_t queues = engine.QueueCount();
  wl::MultiTenantReport report;
  report.tenants.resize(n);
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> written(n, 0);
  std::unordered_map<std::uint32_t, std::size_t> tenant_of_ns;
  for (std::size_t i = 0; i < n; ++i) {
    report.tenants[i].nsid = static_cast<std::uint32_t>(i) + 1;
    tenant_of_ns[report.tenants[i].nsid] = i;
  }
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) {
      while (auto c = engine.PopCompletion(static_cast<io::QueueId>(q))) {
        report.end_time = std::max(report.end_time, c->complete_time);
        wl::TenantResult& r = report.tenants[tenant_of_ns.at(c->request.nsid)];
        ++r.completed;
        r.latencies.push_back(c->Latency());
        r.complete_times.push_back(c->complete_time);
      }
    }
  };
  std::vector<char> blocked(queues, 0);
  for (;;) {
    std::fill(blocked.begin(), blocked.end(), 0);
    for (;;) {
      std::size_t best = n;
      SimTime best_time = std::numeric_limits<SimTime>::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (cursor[i] >= tenants[i].requests.size() || blocked[i % queues]) {
          continue;
        }
        if (tenants[i].requests[cursor[i]].time < best_time) {
          best_time = tenants[i].requests[cursor[i]].time;
          best = i;
        }
      }
      if (best == n) break;
      IoRequest req = tenants[best].requests[cursor[best]];
      req.nsid = report.tenants[best].nsid;
      const auto q = static_cast<io::QueueId>(best % queues);
      if (!engine.TrySubmit(q, req, tenants[best].stamp_base + written[best])) {
        ++report.tenants[best].stall_events;
        blocked[q] = 1;
        continue;
      }
      ++report.tenants[best].submitted;
      if (req.mode == IoMode::kWrite) written[best] += req.length;
      ++cursor[best];
    }
    if (!engine.Step()) {
      bool drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        drained = drained && cursor[i] >= tenants[i].requests.size();
      }
      if (drained && engine.InFlight() == 0) break;
    }
    reap_all();
  }
  return report;
}

TEST(MultiTenantTest, HeapPickReproducesLinearScanExactly) {
  Rng rng(0xD21E);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::size_t n = 1 + rng.Below(12);
    std::vector<wl::TenantSpec> tenants(n);
    for (std::size_t i = 0; i < n; ++i) {
      tenants[i].name = std::to_string(i);
      tenants[i].stamp_base = 1000 * (i + 1);
      // Coarse due times so tenants tie often; some tenants stay idle.
      const std::size_t count = rng.Chance(0.15) ? 0 : rng.Below(60);
      SimTime t = CostOf(rng.Below(5), 100);
      for (std::size_t k = 0; k < count; ++k) {
        t += CostOf(rng.Below(4), 100);
        tenants[i].requests.push_back(
            {t, rng.Below(64), 1 + static_cast<std::uint32_t>(rng.Below(2)),
             rng.Chance(0.6) ? IoMode::kWrite : IoMode::kRead});
      }
    }
    io::EngineConfig ecfg;
    ecfg.queue_count = 1 + rng.Below(5);
    ecfg.queue.sq_depth = 1 + rng.Below(4);
    ecfg.queue.cq_depth = rng.Chance(0.3) ? 1 : 0;  // completion-ring stalls

    LaneDevice ref_device;
    io::IoEngine ref_engine(ref_device, ecfg);
    wl::MultiTenantReport want = ReferenceRun(tenants, ref_engine);

    LaneDevice device;
    io::IoEngine engine(device, ecfg);
    wl::MultiTenantOptions opts;
    opts.sample_limit = 0;
    wl::MultiTenantReport got =
        wl::MultiTenantDriver(tenants, opts).Run(engine);

    EXPECT_EQ(got.end_time, std::max(want.end_time, got.first_submit_time));
    EXPECT_EQ(engine.Stats().dispatched, ref_engine.Stats().dispatched);
    EXPECT_EQ(engine.Stats().sq_rejections, ref_engine.Stats().sq_rejections);
    EXPECT_EQ(engine.Stats().cq_stalls, ref_engine.Stats().cq_stalls);
    for (std::size_t i = 0; i < n; ++i) {
      const wl::TenantResult& a = got.tenants[i];
      const wl::TenantResult& b = want.tenants[i];
      EXPECT_EQ(a.submitted, b.submitted) << i;
      EXPECT_EQ(a.completed, b.completed) << i;
      EXPECT_EQ(a.stall_events, b.stall_events) << i;
      EXPECT_EQ(a.latencies, b.latencies) << i;
      EXPECT_EQ(a.complete_times, b.complete_times) << i;
    }
  }
}

}  // namespace
}  // namespace insider::host
