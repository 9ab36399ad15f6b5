// Versioning subsystem characterization (src/version).
//
// Part 1 — pinned pages & DRAM overhead: a duplicate-heavy workload over a
// protected range (file blocks drawn from a small content pool, the way
// office documents share runs of identical blocks) ages into the version
// store; reports the pages pinned per version record (one: every archived
// version keeps its own page, shared content or not), the NAND bytes
// pinned, and the store's DRAM index cost at packed firmware widths next to
// the paper's Table III budget.
//
// Part 2 — selective rollback latency vs retained depth: per-LBA chains of
// {4, 16, 64} versions, then one RollBackRange over the protected range;
// reports the modeled firmware duration and restores performed.
//
// Part 3 — frontend cost on unprotected ranges: the mqueue 8-queue x QD32
// write hammer with and without a protected range configured elsewhere on
// the device. The release decision consults the range policies on every
// retirement, so this pins the acceptance bound: IOPS delta <= 1%.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/pretrained.h"
#include "ftl/page_ftl.h"
#include "host/dram.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "json_writer.h"
#include "version/range_policy.h"
#include "workload/multi_tenant.h"

namespace insider::bench {
namespace {

nand::Geometry MediumGeometry() {
  nand::Geometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_chip = 128;
  g.pages_per_block = 64;
  return g;  // 32,768 physical pages = 128 MiB at 4 KiB
}

ftl::FtlConfig ProtectedDevice(Lba begin, Lba end, std::uint32_t keep,
                               SimTime window) {
  ftl::FtlConfig cfg;
  cfg.geometry = MediumGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  auto table = std::make_shared<version::RangePolicyTable>();
  table->Add({begin, end, keep, window});
  cfg.range_policies = table;
  return cfg;
}

void PagesAndDram(JsonWriter& json) {
  PrintHeader("versioning — pinned pages and store DRAM overhead");
  const Lba kProtected = 2048;
  const std::size_t kContentPool = 64;  // distinct block contents in flight
  const std::size_t rounds = 2 * RepsFromEnv(2);

  ftl::PageFtl ftl(ProtectedDevice(0, kProtected, 4, Seconds(600)));
  Rng rng(0xDEDu);
  SimTime t = Seconds(1);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (Lba lba = 0; lba < kProtected; ++lba) {
      // Duplicate-heavy content: many LBAs share a block payload.
      std::uint64_t stamp = 0xF00D0000u + rng.Below(kContentPool);
      ftl.WritePage(lba, {stamp, {}}, t);
      t += Microseconds(50);
    }
  }
  ftl.ReleaseExpired(t + Seconds(20));  // age every ring backup into the store

  const ftl::FtlStats& stats = ftl.Stats();
  const version::VersionStore& store = ftl.Store();
  const std::uint64_t page_size = ftl.Config().geometry.page_size;
  const double records = static_cast<double>(store.VersionCount());
  const double pages_per_record =
      records > 0 ? static_cast<double>(store.PageCount()) / records : 0.0;
  const double dram_per_record =
      records > 0 ? static_cast<double>(store.DramBytes()) / records : 0.0;
  const double store_mb =
      static_cast<double>(store.StoreBytes(page_size)) / (1024.0 * 1024.0);
  const double dram_mb =
      static_cast<double>(store.DramBytes()) / (1024.0 * 1024.0);
  const double table3_mb = host::TotalMegabytes(host::PaperDramBudget());

  std::printf("%-28s %12zu\n", "archived versions",
              static_cast<std::size_t>(stats.archived_versions));
  std::printf("%-28s %12zu\n", "version records", store.VersionCount());
  std::printf("%-28s %12zu\n", "pages pinned", store.PageCount());
  std::printf("%-28s %12.3f\n", "pages pinned per record", pages_per_record);
  std::printf("%-28s %12.1f\n", "DRAM B per record (packed)", dram_per_record);
  std::printf("%-28s %12.3f\n", "store NAND MiB", store_mb);
  std::printf("%-28s %12.4f\n", "store DRAM MiB (packed)", dram_mb);
  std::printf("%-28s %12.2f\n", "paper Table III DRAM MiB", table3_mb);

  json.Key("store")
      .BeginObject()
      .Field("protected_lbas", static_cast<std::uint64_t>(kProtected))
      .Field("rounds", static_cast<std::uint64_t>(rounds))
      .Field("content_pool", static_cast<std::uint64_t>(kContentPool))
      .Field("archived_versions", stats.archived_versions)
      .Field("version_records",
             static_cast<std::uint64_t>(store.VersionCount()))
      .Field("pages_pinned", static_cast<std::uint64_t>(store.PageCount()))
      .Field("pages_per_record", pages_per_record)
      .Field("dram_bytes_per_record", dram_per_record)
      .Field("store_bytes", store.StoreBytes(page_size))
      .Field("store_dram_bytes", store.DramBytes())
      .Field("store_dram_mb", dram_mb)
      .Field("paper_table3_dram_mb", table3_mb)
      .EndObject();
}

void RollbackVsDepth(JsonWriter& json) {
  PrintHeader("versioning — selective rollback latency vs retained depth");
  std::printf("%6s %10s %10s %12s\n", "depth", "retained", "restored",
              "duration_us");
  const Lba kProtected = 256;

  json.Key("rollback").BeginArray();
  for (std::uint32_t depth : {4u, 16u, 64u}) {
    ftl::FtlConfig cfg = ProtectedDevice(0, kProtected, depth, 0);
    cfg.latency = nand::LatencyModel{};  // real media costs for the restores
    ftl::PageFtl ftl(cfg);

    // depth+1 generations, one second apart: after aging, each LBA's chain
    // holds exactly `depth` archived versions.
    for (std::uint32_t g = 0; g <= depth; ++g) {
      SimTime t = Seconds(1 + g);
      for (Lba lba = 0; lba < kProtected; ++lba) {
        ftl.WritePage(lba, {static_cast<std::uint64_t>(g) * 100000 + lba, {}},
                      t);
        t += Microseconds(20);
      }
    }
    ftl.ReleaseExpired(Seconds(1 + depth) + Seconds(15));

    const SimTime restore_point = Seconds(1 + depth / 2) + Milliseconds(500);
    ftl::RangeRollbackReport report = ftl.RollBackRange(
        0, kProtected, restore_point, Seconds(1 + depth) + Seconds(20));

    std::printf("%6u %10zu %10zu %12lld\n", depth, ftl.Store().VersionCount(),
                report.restored, static_cast<long long>(report.duration));
    json.BeginObject()
        .Field("depth", static_cast<std::uint64_t>(depth))
        .Field("protected_lbas", static_cast<std::uint64_t>(kProtected))
        .Field("retained_versions",
               static_cast<std::uint64_t>(ftl.Store().VersionCount()))
        .Field("restored", static_cast<std::uint64_t>(report.restored))
        .Field("failed", static_cast<std::uint64_t>(report.failed))
        .Field("duration_us", static_cast<std::int64_t>(report.duration))
        .EndObject();
  }
  json.EndArray();
}

double WriteHammerIops(bool with_policies) {
  host::SsdConfig cfg;
  cfg.ftl.geometry.channels = 4;
  cfg.ftl.geometry.ways = 4;
  cfg.ftl.geometry.blocks_per_chip = 128;
  cfg.ftl.geometry.pages_per_block = 64;
  cfg.detector_enabled = false;  // isolate frontend + FTL + media
  host::Ssd probe(cfg, core::PretrainedTree());
  const Lba exported = probe.Ftl().ExportedLbas();
  if (with_policies) {
    // Protect the top of the address space; the hammer never touches it,
    // so every release decision runs the policy lookup and archives nothing.
    auto table = std::make_shared<version::RangePolicyTable>();
    table->Add({exported - 1024, exported, 8, Seconds(600)});
    cfg.ftl.range_policies = table;
  }

  const std::size_t kQueues = 8;
  const std::size_t kDepth = 32;
  const std::size_t kCommandsPerQueue = RepsFromEnv(2) * 1000;
  host::Ssd ssd(cfg, core::PretrainedTree());
  host::SsdTarget target(ssd);
  // Each queue hammers its own slice of the unprotected bottom half.
  const Lba region = (exported / 2) / static_cast<Lba>(kQueues);
  Rng rng(0xB10C'0000);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < kQueues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = q * 1'000'000ull;
    for (std::size_t i = 0; i < kCommandsPerQueue; ++i) {
      IoRequest req;
      req.time = CostOf(i, 10);
      req.lba = region * q + rng.Below(region);
      req.length = 1;
      req.mode = IoMode::kWrite;
      t.requests.push_back(req);
    }
    tenants.push_back(std::move(t));
  }

  io::EngineConfig ecfg;
  ecfg.queue_count = kQueues;
  ecfg.queue.sq_depth = kDepth;
  io::IoEngine engine(target, ecfg);
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);
  return report.TotalIops();
}

void FrontendOverhead(JsonWriter& json) {
  PrintHeader("versioning — 8q x QD32 write IOPS, unprotected footprint");
  const double baseline = WriteHammerIops(false);
  const double versioned = WriteHammerIops(true);
  const double delta_pct =
      baseline > 0 ? (baseline - versioned) / baseline * 100.0 : 0.0;
  std::printf("%-28s %12.0f\n", "baseline IOPS", baseline);
  std::printf("%-28s %12.0f\n", "versioning enabled IOPS", versioned);
  std::printf("%-28s %12.4f  (bound: <= 1%%)\n", "delta %", delta_pct);

  json.Key("iops")
      .BeginObject()
      .Field("queues", std::uint64_t{8})
      .Field("depth", std::uint64_t{32})
      .Field("baseline_iops", baseline)
      .Field("versioned_iops", versioned)
      .Field("delta_pct", delta_pct)
      .Field("bound_pct", 1.0)
      .EndObject();
}

}  // namespace
}  // namespace insider::bench

int main() {
  using namespace insider::bench;
  JsonWriter json("BENCH_versioning.json");
  json.BeginObject();
  json.Key("bench").Value("versioning");
  PagesAndDram(json);
  RollbackVsDepth(json);
  FrontendOverhead(json);
  json.EndObject();
  std::printf("\nwrote %s\n", json.Path().c_str());
  return 0;
}
