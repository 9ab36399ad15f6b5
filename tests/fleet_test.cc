#include "host/fleet.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/detector_pool.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "workload/multi_tenant.h"

namespace insider::host {
namespace {

/// Tree voting ransomware iff OWIO > `threshold` (same shape as
/// ssd_test.cc). The fleet smoke tests raise the cut to 120: the in-place
/// encryptor overwrites 200+ blocks/slice while the heaviest benign app
/// (OsUpdate at noisy intensity) stays under 100.
core::DecisionTree OwioTree(double threshold = 30.0) {
  std::vector<core::DecisionTree::Node> nodes(3);
  nodes[0].is_leaf = false;
  nodes[0].feature = core::FeatureId::kOwIo;
  nodes[0].threshold = threshold;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].is_leaf = true;
  nodes[1].label = false;
  nodes[2].is_leaf = true;
  nodes[2].label = true;
  return core::DecisionTree(std::move(nodes));
}

/// A tenant that read-then-overwrites `blocks` LBAs per 1-s slice for
/// `slices` slices: every write is one OWIO in the paper's feature model.
wl::TenantSpec OverwriteTenant(const std::string& name, Lba base,
                               std::uint32_t blocks, int slices,
                               std::uint64_t stamp_base) {
  wl::TenantSpec t;
  t.name = name;
  t.stamp_base = stamp_base;
  for (int s = 0; s < slices; ++s) {
    SimTime t0 = Seconds(s);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      t.requests.push_back({t0 + 10 + b, base + b, 1, IoMode::kRead});
    }
    for (std::uint32_t b = 0; b < blocks; ++b) {
      t.requests.push_back({t0 + 500'000 + b, base + b, 1, IoMode::kWrite});
    }
  }
  return t;
}

struct VictimOutcome {
  int score = 0;
  std::optional<SimTime> alarm;
};

/// Drive `tenants` through a 2-pair engine into one Ssd and report the
/// detector outcome of the tenant on namespace `nsid`.
VictimOutcome RunTenants(std::vector<wl::TenantSpec> tenants, bool per_ns,
                         core::NamespaceId nsid) {
  SsdConfig cfg;
  cfg.ftl.geometry = nand::Geometry::Seed();
  cfg.ftl.latency = nand::LatencyModel::Zero();
  cfg.detector_pool.per_namespace = per_ns;
  Ssd ssd(cfg, OwioTree());
  SsdTarget target(ssd);

  io::EngineConfig ecfg;
  ecfg.queue_count = 2;
  ecfg.queue.sq_depth = 8;
  io::IoEngine engine(target, ecfg);

  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);
  EXPECT_EQ(report.status, wl::MultiTenantStatus::kOk);
  ssd.IdleUntil(Seconds(8));  // settle trailing slices

  VictimOutcome out;
  const core::Detector* d = ssd.Detectors().Peek(per_ns ? nsid : 0);
  if (d != nullptr) {
    out.score = d->Score();
    out.alarm = d->FirstAlarmTime();
  }
  return out;
}

TEST(FleetIsolationTest, PerNamespacePoolShieldsVictimFromNoisyNeighbor) {
  // The victim overwrites 40 blocks/slice — over the tree's threshold on
  // its own. Its detector outcome must be bit-identical whether or not a
  // noisy neighbor hammers the same device.
  std::vector<wl::TenantSpec> alone;
  alone.push_back(OverwriteTenant("victim", 0, 40, 5, 1000));
  VictimOutcome solo = RunTenants(std::move(alone), /*per_ns=*/true, 1);

  std::vector<wl::TenantSpec> crowd;
  crowd.push_back(OverwriteTenant("victim", 0, 40, 5, 1000));
  crowd.push_back(OverwriteTenant("noisy", 100'000, 25, 5, 2000));
  VictimOutcome shared_device = RunTenants(std::move(crowd), true, 1);

  ASSERT_TRUE(solo.alarm.has_value());
  ASSERT_TRUE(shared_device.alarm.has_value());
  EXPECT_EQ(*solo.alarm, *shared_device.alarm);
  EXPECT_EQ(solo.score, shared_device.score);
}

TEST(FleetIsolationTest, SharedDetectorCrossContaminates) {
  // Pinned legacy behavior: two benign-in-isolation streams (25 OWIO/slice
  // each, under the 30 threshold) merge in the seed's single shared
  // detector and fabricate an alarm neither stream earned...
  std::vector<wl::TenantSpec> pair;
  pair.push_back(OverwriteTenant("a", 0, 25, 5, 1000));
  pair.push_back(OverwriteTenant("b", 100'000, 25, 5, 2000));
  VictimOutcome shared = RunTenants(std::move(pair), /*per_ns=*/false, 1);
  EXPECT_TRUE(shared.alarm.has_value()) << "legacy contamination vanished?";

  // ...while the per-namespace pool keeps both below threshold.
  std::vector<wl::TenantSpec> pair2;
  pair2.push_back(OverwriteTenant("a", 0, 25, 5, 1000));
  pair2.push_back(OverwriteTenant("b", 100'000, 25, 5, 2000));
  VictimOutcome isolated_a = RunTenants(std::move(pair2), true, 1);
  EXPECT_FALSE(isolated_a.alarm.has_value());

  std::vector<wl::TenantSpec> pair3;
  pair3.push_back(OverwriteTenant("a", 0, 25, 5, 1000));
  pair3.push_back(OverwriteTenant("b", 100'000, 25, 5, 2000));
  VictimOutcome isolated_b = RunTenants(std::move(pair3), true, 2);
  EXPECT_FALSE(isolated_b.alarm.has_value());
}

FleetConfig SmokeFleet() {
  FleetConfig fc;
  fc.tenants = 8;
  // The in-place encryptor overwrites every victim block where it sits —
  // the one family whose OWIO burst is deterministic enough for a smoke
  // test against the single-feature tree.
  fc.families = {"InHouse.inplace"};
  fc.victim_fraction = 0.25;
  fc.noisy_fraction = 0.25;
  fc.noisy_intensity = 2.0;  // the smoke test checks plumbing, not fairness
  // Long enough for the in-place encryptor to produce >= score_threshold
  // voting slices (it chews ~50 files/s of modeled throughput).
  fc.duration = Seconds(8);
  fc.attack_start = Seconds(2);
  fc.queue_count = 4;
  fc.queue_weights = {1, 2};
  fc.fileset_files = 200;
  fc.ftl.geometry = nand::Geometry::Seed();
  fc.ftl.latency = nand::LatencyModel::Zero();
  fc.seed = 7;
  return fc;
}

TEST(FleetTest, RunFleetPopulatesDetectionMatrix) {
  obs::MetricsRegistry metrics;
  FleetConfig fc = SmokeFleet();
  fc.metrics = &metrics;
  FleetResult r = RunFleet(OwioTree(120.0), fc);

  ASSERT_EQ(r.status, wl::MultiTenantStatus::kOk);
  ASSERT_EQ(r.tenants.size(), fc.tenants);
  EXPECT_EQ(r.victims + r.benign, fc.tenants);
  EXPECT_GE(r.victims, 1u);
  // The in-place burst of overwrites trips the OWIO tree on every victim.
  EXPECT_EQ(r.detected_victims, r.victims);
  EXPECT_EQ(r.false_positives, 0u);

  std::set<std::uint32_t> nsids;
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    const FleetTenantResult& t = r.tenants[i];
    EXPECT_TRUE(nsids.insert(t.nsid).second) << "duplicate nsid " << t.nsid;
    EXPECT_EQ(t.queue, i % fc.queue_count);
    EXPECT_EQ(t.weight, fc.queue_weights[t.queue % fc.queue_weights.size()]);
    EXPECT_GT(t.completed, 0u) << t.name;
    if (t.is_ransomware) {
      EXPECT_TRUE(t.detected) << t.name;
      EXPECT_GT(t.detection_latency, 0) << t.name;
    }
  }
  // One instance per tenant namespace plus the pinned default instance.
  EXPECT_EQ(r.pool_instances, fc.tenants + 1);
  EXPECT_TRUE(r.pool_within_budget);
  EXPECT_GT(r.total_dispatched, 0u);

  // Ssd mirrored the pool into the obs gauges.
  const auto& gauges = metrics.Gauges();
  auto it = gauges.find("detector.pool.instances");
  ASSERT_NE(it, gauges.end());
  EXPECT_EQ(it->second.Value(), static_cast<double>(r.pool_instances));
  EXPECT_NE(gauges.find("detector.pool.bytes"), gauges.end());
}

TEST(FleetTest, BudgetedFleetDegradesButKeepsDetecting) {
  FleetConfig fc = SmokeFleet();
  FleetResult unbounded = RunFleet(OwioTree(120.0), fc);
  ASSERT_GT(unbounded.pool_bytes, 0u);

  fc.pool.dram_budget_bytes = unbounded.pool_bytes / 4;
  FleetResult tight = RunFleet(OwioTree(120.0), fc);
  EXPECT_GT(tight.pool_pressure_events, 0u);
  EXPECT_TRUE(tight.pool_within_budget);
  EXPECT_LE(tight.pool_bytes, fc.pool.dram_budget_bytes);
  // Graceful: shrunken instances, same verdicts on this workload.
  EXPECT_EQ(tight.detected_victims, unbounded.detected_victims);
  EXPECT_EQ(tight.false_positives, unbounded.false_positives);
}

}  // namespace
}  // namespace insider::host
