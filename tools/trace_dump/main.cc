// trace_dump: run a canned scenario with the observability sinks attached
// and export everything they captured.
//
// Modes:
//   wannacry  (default) — the Fig. 6 demo: WannaCry + 3 benign tenants
//               through the multi-queue frontend with the in-SSD detector
//               live. Exports the causal trace, the metrics snapshot, and
//               the detector introspection JSON (per-slice features, tree
//               path, score timeline).
//   mqueue    — 8 queues x depth 32 of synthetic 50/50 read/write traffic,
//               detector off: the frontend-characterization workload.
//               Exports the causal trace and the metrics snapshot.
//
// With --trace-id N the Chrome trace contains only that command, rowed per
// trace id, so its whole lifetime — queue wait -> arbitration -> FTL map
// lookup -> NAND bus -> NAND cell — renders as one stack of nested spans in
// chrome://tracing / Perfetto. Without it, events row by hardware lane
// (queue, channel, chip), which is the device-utilization view.
//
// Outputs (PREFIX from --out, default "trace_dump"):
//   PREFIX.trace.json     Chrome trace-event JSON
//   PREFIX.metrics.json   metrics registry snapshot
//   PREFIX.detector.json  detector introspection (wannacry mode only)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pretrained.h"
#include "host/experiment.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "obs/detector_probe.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider {
namespace {

struct Options {
  std::string mode = "wannacry";
  std::string out = "trace_dump";
  obs::TraceId trace_id = 0;          // 0 = export everything
  std::size_t capacity = 1 << 18;     // trace ring slots
  std::size_t mqueue_commands = 400;  // per queue, mqueue mode
  SimTime duration = Seconds(20);     // wannacry mode
  SimTime ransom_start = Seconds(6);
};

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--mode wannacry|mqueue] [--out PREFIX] [--trace-id N]\n"
      "          [--capacity N] [--commands N]\n"
      "  --mode      scenario to capture (default wannacry)\n"
      "  --out       output path prefix (default trace_dump)\n"
      "  --trace-id  export only this command, rowed per trace id so its\n"
      "              spans nest (default: all events, rowed per hw lane)\n"
      "  --capacity  trace ring capacity in events (default %zu)\n"
      "  --commands  mqueue mode: commands per queue (default %zu)\n",
      argv0, Options().capacity, Options().mqueue_commands);
}

bool Parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::printf("trace_dump: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--mode") == 0) {
      const char* v = next("--mode");
      if (v == nullptr) return false;
      opt.mode = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opt.out = v;
    } else if (std::strcmp(argv[i], "--trace-id") == 0) {
      const char* v = next("--trace-id");
      if (v == nullptr) return false;
      opt.trace_id = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      const char* v = next("--capacity");
      if (v == nullptr) return false;
      opt.capacity = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--commands") == 0) {
      const char* v = next("--commands");
      if (v == nullptr) return false;
      opt.mqueue_commands = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(argv[0]);
      return false;
    } else {
      std::printf("trace_dump: unknown flag %s\n", argv[i]);
      Usage(argv[0]);
      return false;
    }
  }
  if (opt.mode != "wannacry" && opt.mode != "mqueue") {
    std::printf("trace_dump: unknown mode '%s'\n", opt.mode.c_str());
    return false;
  }
  return true;
}

int RunWannacry(const Options& opt, obs::Tracer& tracer,
                obs::MetricsRegistry& metrics) {
  core::DecisionTree tree = core::PretrainedTree();
  host::InterleavedConfig cfg;
  cfg.benign_tenants = 3;
  cfg.ransomware = "WannaCry";
  cfg.duration = opt.duration;
  cfg.ransom_start = opt.ransom_start;
  cfg.seed = 7;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  bool detector_written = true;
  cfg.inspect = [&](host::Ssd& ssd) {
    detector_written = obs::WriteDetectorIntrospection(
        ssd.Detector(), opt.out + ".detector.json");
  };
  host::InterleavedResult r = host::RunInterleavedDetection(tree, cfg);
  std::printf("wannacry: score %d, %s", r.max_score,
              r.alarm ? "ALARM" : "no alarm");
  if (r.alarm) {
    std::printf(" at %.2f s (latency %.2f s)", ToSeconds(*r.alarm_time),
                ToSeconds(r.detection_latency));
  }
  std::printf(", %zu slices\n", r.slices.size());
  if (!detector_written) {
    std::printf("trace_dump: cannot write %s.detector.json\n",
                opt.out.c_str());
    return 1;
  }
  std::printf("wrote %s.detector.json\n", opt.out.c_str());
  return 0;
}

int RunMqueue(const Options& opt, obs::Tracer& tracer,
              obs::MetricsRegistry& metrics) {
  constexpr std::size_t kQueues = 8;
  host::SsdConfig scfg;
  scfg.ftl.geometry.channels = 4;
  scfg.ftl.geometry.ways = 4;
  scfg.ftl.geometry.blocks_per_chip = 128;
  scfg.ftl.geometry.pages_per_block = 64;
  scfg.detector_enabled = false;  // frontend + media behavior only
  host::Ssd ssd(scfg, core::PretrainedTree());
  host::SsdTarget target(ssd);
  ssd.AttachObs(&tracer, &metrics);

  const Lba exported = ssd.Ftl().ExportedLbas();
  const Lba region = exported / static_cast<Lba>(kQueues);
  Rng rng(0xD07'7A3CE);
  std::vector<wl::TenantSpec> tenants;
  for (std::size_t q = 0; q < kQueues; ++q) {
    wl::TenantSpec t;
    t.name = "host" + std::to_string(q);
    t.stamp_base = q * 1'000'000ull;
    for (std::size_t i = 0; i < opt.mqueue_commands; ++i) {
      IoRequest req;
      req.time = CostOf(i, 10);
      req.lba = region * q + rng.Below(region > 8 ? region - 8 : 1);
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
  engine.AttachObs(&tracer, &metrics);
  wl::MultiTenantDriver driver(std::move(tenants));
  wl::MultiTenantReport report = driver.Run(engine);
  std::printf("mqueue: %zu queues x depth 32, %.0f IOPS, %llu dispatched\n",
              kQueues, report.TotalIops(),
              static_cast<unsigned long long>(engine.Stats().dispatched));
  return 0;
}

int Run(const Options& opt) {
  obs::Tracer tracer(opt.capacity);
  obs::MetricsRegistry metrics;

  int rc = opt.mode == "wannacry" ? RunWannacry(opt, tracer, metrics)
                                  : RunMqueue(opt, tracer, metrics);
  if (rc != 0) return rc;

  std::vector<obs::TraceEvent> events = tracer.Buffer().Snapshot();
  obs::ChromeTraceOptions copt;
  copt.only_trace = opt.trace_id;
  copt.row_per_trace = opt.trace_id != 0;
  if (!obs::WriteChromeTrace(events, opt.out + ".trace.json", copt)) {
    std::printf("trace_dump: cannot write %s.trace.json\n", opt.out.c_str());
    return 1;
  }
  if (!metrics.WriteSnapshot(opt.out + ".metrics.json")) {
    std::printf("trace_dump: cannot write %s.metrics.json\n",
                opt.out.c_str());
    return 1;
  }

  std::size_t selected = events.size();
  if (opt.trace_id != 0) {
    selected = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.trace == opt.trace_id) ++selected;
    }
    std::printf("trace id %llu: %zu events\n",
                static_cast<unsigned long long>(opt.trace_id), selected);
    if (selected == 0) {
      std::printf(
          "trace_dump: no events carry that id (ring holds ids from the "
          "newest %zu events; try a later command id)\n",
          events.size());
      return 1;
    }
  }
  std::printf("wrote %s.trace.json (%zu events, %llu dropped by the ring)\n",
              opt.out.c_str(), selected,
              static_cast<unsigned long long>(tracer.Buffer().Dropped()));
  std::printf("wrote %s.metrics.json\n", opt.out.c_str());
  std::printf("open chrome://tracing (or ui.perfetto.dev) and load the "
              "trace to browse it.\n");
  return 0;
}

}  // namespace
}  // namespace insider

int main(int argc, char** argv) {
  insider::Options opt;
  if (!insider::Parse(argc, argv, opt)) return 2;
  return insider::Run(opt);
}
