// End-to-end causal tracing through the full stack: host commands pushed
// through the 8-queue io::IoEngine into a real Ssd must come back out of the
// trace ring as a consistent span stack — engine submit/queue-wait/
// arbitration/device plus the FTL and NAND work underneath, all carrying the
// command's trace id — and the metrics registry must account for the same
// phases, and attaching the tracer must never move virtual time.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pretrained.h"
#include "host/experiment.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider {
namespace {

struct MqueueRun {
  obs::Tracer tracer{1 << 18};
  obs::MetricsRegistry metrics;
  wl::MultiTenantReport report;
  std::uint64_t dispatched = 0;
};

// The trace_dump / mqueue_throughput workload in miniature: 8 queues of
// depth 32 hammering a 4x4 device with 50/50 read/write traffic.
void RunMqueue(MqueueRun& run, std::size_t commands_per_queue) {
  constexpr std::size_t kQueues = 8;
  host::SsdConfig scfg;
  scfg.ftl.geometry.channels = 4;
  scfg.ftl.geometry.ways = 4;
  scfg.ftl.geometry.blocks_per_chip = 128;
  scfg.ftl.geometry.pages_per_block = 64;
  scfg.detector_enabled = false;
  host::Ssd ssd(scfg, core::PretrainedTree());
  host::SsdTarget target(ssd);
  ssd.AttachObs(&run.tracer, &run.metrics);

  const Lba exported = ssd.Ftl().ExportedLbas();
  const Lba region = exported / static_cast<Lba>(kQueues);
  Rng rng(0x7E57'7E57);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < kQueues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = q * 1'000'000ull;
    for (std::size_t i = 0; i < commands_per_queue; ++i) {
      IoRequest req;
      req.time = CostOf(i, 10);
      // Narrow per-queue range so reads regularly land on LBAs an earlier
      // write mapped — that is what exercises the full read span stack
      // (map lookup -> cell read -> bus) instead of early-out unmapped reads.
      req.lba = region * q + rng.Below(48);
      req.length = 1;
      req.mode = rng.Chance(0.5) ? IoMode::kRead : IoMode::kWrite;
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }

  io::EngineConfig ecfg;
  ecfg.queue_count = kQueues;
  ecfg.queue.sq_depth = 32;
  io::IoEngine engine(target, ecfg);
  engine.AttachObs(&run.tracer, &run.metrics);
  wl::MultiTenantDriver driver(std::move(tenants));
  run.report = driver.Run(engine);
  run.dispatched = engine.Stats().dispatched;
}

TEST(TraceIntegrationTest, CommandsRenderAsNestedSpanStacks) {
  MqueueRun run;
  RunMqueue(run, 150);
  ASSERT_EQ(run.dispatched, 8u * 150u);
  EXPECT_EQ(run.tracer.Buffer().Dropped(), 0u);

  std::map<obs::TraceId, std::vector<obs::TraceEvent>> by_trace;
  for (obs::TraceEvent& e : run.tracer.Buffer().Snapshot()) {
    by_trace[e.trace].push_back(std::move(e));
  }

  // Every dispatched command contributed a trace; none under the background
  // id carries an engine span (background work is firmware/GC only).
  std::size_t full_write_stacks = 0;
  std::size_t full_read_stacks = 0;
  for (const auto& [id, events] : by_trace) {
    if (id == obs::kBackgroundTrace) {
      for (const obs::TraceEvent& e : events) EXPECT_NE(e.cat, "engine");
      continue;
    }
    std::set<std::string> names;
    const obs::TraceEvent* queue_wait = nullptr;
    const obs::TraceEvent* device = nullptr;
    for (const obs::TraceEvent& e : events) {
      names.insert(e.name);
      if (e.name == "engine.queue_wait") queue_wait = &e;
      if (e.name == "engine.device") device = &e;
    }
    // The engine phases are unconditional for every command.
    ASSERT_TRUE(names.count("engine.submit")) << "trace " << id;
    ASSERT_TRUE(names.count("engine.arbitration")) << "trace " << id;
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(device, nullptr);
    // Nesting: submit -> [queue_wait] -> [device], and all NAND work inside
    // the device span's envelope.
    EXPECT_LE(queue_wait->begin, queue_wait->end);
    EXPECT_EQ(queue_wait->end, device->begin);
    for (const obs::TraceEvent& e : events) {
      if (e.cat == std::string("nand") || e.cat == std::string("ftl")) {
        EXPECT_GE(e.begin, device->begin) << e.name << " trace " << id;
        EXPECT_LE(e.end, device->end) << e.name << " trace " << id;
      }
    }
    if (names.count("nand.cell_program")) {
      EXPECT_TRUE(names.count("nand.bus"));
      ++full_write_stacks;
    }
    if (names.count("ftl.map_lookup") && names.count("nand.cell_read")) {
      EXPECT_TRUE(names.count("nand.bus"));
      ++full_read_stacks;
    }
  }
  EXPECT_EQ(by_trace.size() - by_trace.count(obs::kBackgroundTrace),
            run.dispatched);
  // Plenty of commands exercise the full path both ways.
  EXPECT_GT(full_write_stacks, 100u);
  EXPECT_GT(full_read_stacks, 10u);
}

TEST(TraceIntegrationTest, MetricsAccountForTheSamePhases) {
  MqueueRun run;
  RunMqueue(run, 100);
  const auto& h = run.metrics.Histograms();
  for (const char* name :
       {"engine.queue_wait_us", "engine.device_us", "engine.latency_us"}) {
    auto it = h.find(name);
    ASSERT_NE(it, h.end()) << name;
    EXPECT_EQ(it->second.Count(), run.dispatched) << name;
    EXPECT_EQ(it->second.Underflow(), 0u) << name;
    EXPECT_EQ(it->second.Overflow(), 0u) << name;
  }
  // NAND occupancy histograms fill from the device side.
  ASSERT_TRUE(h.count("nand.bus_us"));
  EXPECT_GT(h.at("nand.bus_us").Count(), 0u);
  ASSERT_TRUE(h.count("nand.cell_program_us"));
  EXPECT_GT(h.at("nand.cell_program_us").Count(), 0u);
}

TEST(TraceIntegrationTest, TracingNeverPerturbsVirtualTime) {
  // The same workload with and without sinks attached must produce
  // bit-identical virtual-time results — the "near-zero cost when disabled"
  // contract, verified at its strongest: identical even when ENABLED.
  MqueueRun traced;
  RunMqueue(traced, 120);

  // Re-run with no sinks: reuse the helper but detach by running a copy
  // whose tracer/metrics are never attached.
  constexpr std::size_t kQueues = 8;
  host::SsdConfig scfg;
  scfg.ftl.geometry.channels = 4;
  scfg.ftl.geometry.ways = 4;
  scfg.ftl.geometry.blocks_per_chip = 128;
  scfg.ftl.geometry.pages_per_block = 64;
  scfg.detector_enabled = false;
  host::Ssd ssd(scfg, core::PretrainedTree());
  host::SsdTarget target(ssd);
  const Lba exported = ssd.Ftl().ExportedLbas();
  const Lba region = exported / static_cast<Lba>(kQueues);
  Rng rng(0x7E57'7E57);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < kQueues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = q * 1'000'000ull;
    for (std::size_t i = 0; i < 120; ++i) {
      IoRequest req;
      req.time = CostOf(i, 10);
      req.lba = region * q + rng.Below(48);  // mirror RunMqueue exactly
      req.length = 1;
      req.mode = rng.Chance(0.5) ? IoMode::kRead : IoMode::kWrite;
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }
  io::EngineConfig ecfg;
  ecfg.queue_count = kQueues;
  ecfg.queue.sq_depth = 32;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport bare = driver.Run(engine);

  EXPECT_EQ(bare.end_time, traced.report.end_time);
  ASSERT_EQ(bare.tenants.size(), traced.report.tenants.size());
  for (std::size_t i = 0; i < bare.tenants.size(); ++i) {
    EXPECT_EQ(bare.tenants[i].latencies, traced.report.tenants[i].latencies)
        << "tenant " << i;
  }
}

TEST(TraceIntegrationTest, InterleavedDetectionExportsSliceHistory) {
  // The experiment runner copies the detector's per-slice introspection
  // records (features, tree path, score) into the result.
  host::InterleavedConfig cfg;
  cfg.benign_tenants = 2;
  cfg.duration = Seconds(16);
  cfg.ransom_start = Seconds(5);
  cfg.seed = 7;
  obs::Tracer tracer(1 << 16);
  obs::MetricsRegistry metrics;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  host::InterleavedResult r =
      host::RunInterleavedDetection(core::PretrainedTree(), cfg);
  ASSERT_FALSE(r.slices.empty());
  int max_score = 0;
  for (const core::SliceRecord& rec : r.slices) {
    EXPECT_FALSE(rec.tree_path.empty());
    max_score = std::max(max_score, rec.score);
  }
  EXPECT_EQ(max_score, r.max_score);
  EXPECT_GT(tracer.Buffer().Size(), 0u);
  // An alarm (if raised) shows up as an ssd.alarm instant.
  bool saw_alarm_marker = false;
  for (const obs::TraceEvent& e : tracer.Buffer().Snapshot()) {
    if (e.name == "ssd.alarm") saw_alarm_marker = true;
  }
  EXPECT_EQ(saw_alarm_marker, r.alarm);
}

}  // namespace
}  // namespace insider
