// perfbench: the repository's benchmark.
//
//   perfbench --workload fleet64|seed_gc|paper_recover --seed N
//             --seconds S --trace 0|1
//
// --trace 0 runs the workload once with no instrumentation and reports the
// end-to-end metrics. --trace 1 runs it twice, without and with the timing
// decorators of seams.h, checks that the decorators changed nothing, checks
// the composition against the library harness it mirrors, and reports the
// per-layer metrics. Every metric is printed as one line, then the last
// line of stdout is a JSON object {correct, attempted, failed, metrics}.
// The exit code is 0 only when every output check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "quantile.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunSpec;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  if (argc % 2 == 0) return false;  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      continue;
    }
    const unsigned long long n = std::strtoull(val, &end, 10);
    if (end == val || *end != '\0') return false;
    if (key == "--seed") {
      args.seed = n;
    } else if (key == "--seconds") {
      if (n < 10 || n > 60) return false;
      args.seconds = static_cast<int>(n);
    } else if (key == "--trace") {
      if (n > 1) return false;
      args.trace = static_cast<int>(n);
    } else {
      return false;
    }
  }
  return args.workload == "fleet64" || args.workload == "seed_gc" ||
         args.workload == "paper_recover";
}

Outcome Run(const std::string& workload, const RunSpec& spec) {
  if (workload == "fleet64") return perfbench::RunFleet64(spec);
  if (workload == "seed_gc") return perfbench::RunSeedGc(spec);
  return perfbench::RunPaperRecover(spec);
}

double Median(std::vector<double> v) { return perfbench::Quantile(v, 0.5); }

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double WriteAmp(const Outcome& o) {
  double host = 0.0;
  double programs = 0.0;
  for (const insider::ftl::FtlStats& s : o.ftl) {
    host += static_cast<double>(s.host_writes);
    programs += static_cast<double>(s.host_writes + s.gc_page_copies);
  }
  return Ratio(programs, host);
}

std::string LevelName(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

/// Output checks every run makes on its own outcome.
void CheckOutcome(const Outcome& o, std::vector<std::string>& errors) {
  errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  for (const auto* v : {&o.read_us, &o.write_us}) {
    if (perfbench::HighestTailLevel(v->size()) < o.tail_level) {
      errors.push_back("too few latency samples (" + std::to_string(v->size()) +
                       ") for " + LevelName(o.tail_level));
    }
  }
  if (o.ambiguous_modes != 0) {
    errors.push_back(std::to_string(o.ambiguous_modes) +
                     " completions of unknown direction");
  }
}

std::vector<Metric> EndToEnd(const Outcome& o) {
  const perfbench::Timing rd = perfbench::Summarize(o.read_us, o.tail_level);
  const perfbench::Timing wr = perfbench::Summarize(o.write_us, o.tail_level);
  const std::string rd_note = "V: " + LevelName(rd.tail_level) + " of " +
                              std::to_string(rd.samples) + " samples";
  return {
      {"sim_ops_per_s", Median(o.ops_per_s), "1/s",
       "H: device requests per wall-second, median of " +
           std::to_string(o.ops_per_s.size()) + " timed sections"},
      {"setup_s", Median(o.setup_s), "s",
       "H: median of " + std::to_string(o.setup_s.size()) + " set-ups"},
      {"peak_rss_mib", PeakRssMib(), "MiB", "H: peak resident memory"},
      {"iops", Ratio(static_cast<double>(o.device_ops), o.virtual_s), "1/s",
       "V: device requests per virtual second"},
      {"read_mean_us", rd.mean, "us",
       "V: mean of " + std::to_string(rd.samples) + " samples"},
      {"read_tail_us", rd.tail, "us", rd_note},
      {"write_mean_us", wr.mean, "us",
       "V: mean of " + std::to_string(wr.samples) + " samples"},
      {"write_amp", WriteAmp(o), "ratio", "V: NAND programs per host page"},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
       "frac", "operations that succeeded, over attempted"},
  };
}

/// Outcomes that only some workloads have; printed for the reader and
/// reported again among the per-layer metrics.
std::vector<Metric> Outcomes(const Outcome& o) {
  const perfbench::Timing rd = perfbench::Summarize(o.read_us, o.tail_level);
  const perfbench::Timing wr = perfbench::Summarize(o.write_us, o.tail_level);
  return {
      {"vt.read_p50_us", rd.p50, "us",
       "V: median of " + std::to_string(rd.samples) + " reads"},
      {"vt.write_p50_us", wr.p50, "us",
       "V: median of " + std::to_string(wr.samples) + " writes"},
      {"vt.write_tail_us", wr.tail, "us",
       "V: " + LevelName(wr.tail_level) + " of " + std::to_string(wr.samples) +
           " writes"},
      {"core.detection_rate",
       Ratio(static_cast<double>(o.victims_detected), static_cast<double>(o.victims)),
       "frac", "V: " + std::to_string(o.victims_detected) + "/" +
                   std::to_string(o.victims) + " attacks alarmed"},
      {"core.false_positives", static_cast<double>(o.false_positives), "count",
       "V: of " + std::to_string(o.benign) + " benign detectors"},
      {"core.detect_latency_s", Median(o.detect_latency_s), "s",
       "V: median alarm minus attack start"},
      {"fs.files_intact_frac",
       Ratio(static_cast<double>(o.files_intact), static_cast<double>(o.files_total)),
       "frac", "V: victim files byte-exact after recovery"},
      {"ftl.rollback_ms", Median(o.rollback_ms), "ms",
       "V: median modelled rollback duration"},
  };
}

std::vector<Metric> PerLayer(const Outcome& plain, const Outcome& traced) {
  const perfbench::LayerTrace& t = traced.trace;
  const insider::io::EngineStats& e = plain.engine;
  const double cmds = static_cast<double>(e.dispatched);
  const double trials = static_cast<double>(plain.trials.size());
  const double self_ns = t.wl_run_s * 1e9 - t.dispatch_total_ns -
                         t.redrive_total_ns - t.firmware_total_ns;
  insider::ftl::FtlStats s;
  for (const insider::ftl::FtlStats& f : plain.ftl) {
    s.host_writes += f.host_writes;
    s.host_reads += f.host_reads;
    s.gc_page_copies += f.gc_page_copies;
    s.gc_erases += f.gc_erases;
    s.gc_background_blocks += f.gc_background_blocks;
    s.forced_releases += f.forced_releases;
    s.retained_released += f.retained_released;
    s.gc_stall_time += f.gc_stall_time;
  }
  const double plain_ops = Median(plain.ops_per_s);
  const double traced_ops = Median(traced.ops_per_s);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"wl.run_s", t.wl_run_s, "s", "H: MultiTenantDriver::Run"},
      {"wl.stalls", d(plain.stalls), "count", "submissions refused by a full SQ"},
      {"io.frontend_self_ns_per_cmd", Ratio(self_ns, cmds), "ns",
       "H: wl.run_s minus Dispatch, Redrive and RunBackgroundUntil"},
      {"io.dispatched", cmds, "count", ""},
      {"io.sq_rejections", d(e.sq_rejections), "count", ""},
      {"io.cq_stalls", d(e.cq_stalls), "count", ""},
      {"io.max_in_flight", d(e.max_in_flight), "count", ""},
      {"io.read_retries", d(e.read_retries), "count", ""},
      {"io.queue_wait_p999_us", t.queue_wait_p999_us, "us", "V: MetricsRegistry"},
      {"io.device_p999_us", t.device_p999_us, "us", "V: MetricsRegistry"},
      {"host.dispatch_ns_per_cmd", Ratio(t.dispatch_total_ns, d(t.dispatch_calls)),
       "ns", "H: per Ssd::SubmitAsync"},
      {"host.dispatch_ns_p999", t.dispatch_p999_ns, "ns",
       "H: p99.9 of " + std::to_string(t.dispatch_calls) + " calls"},
      {"host.firmware_s", t.firmware_total_ns * 1e-9, "s",
       "H: RunBackgroundUntil, share " +
           std::to_string(Ratio(t.firmware_total_ns * 1e-9, t.wl_run_s))},
      {"host.firmware_calls", d(t.firmware_calls), "count", ""},
      {"host.block_io_ns_per_call", Ratio(t.block_io_total_ns, d(t.block_io_calls)),
       "ns", "H: per fs::BlockDevice call"},
      {"host.block_io_calls", d(t.block_io_calls), "count", ""},
      {"core.on_request_ns", Ratio(t.on_request_total_ns, d(t.headers)), "ns",
       "H: replayed header update"},
      {"core.slice_close_ns", Ratio(t.slice_close_total_ns, d(t.slices_closed)),
       "ns", "H: replayed slice close"},
      {"core.slices_closed", d(t.slices_closed), "count", ""},
      {"core.instances", d(t.instances), "count", ""},
      {"core.replay_exact", t.replay_exact ? 1.0 : 0.0, "bool",
       t.replayed ? "" : "no DeviceTarget seam: not replayed"},
  };
  for (Metric& o : Outcomes(plain)) {
    if (o.name.rfind("core.", 0) == 0) m.push_back(o);
  }
  std::vector<Metric> rest = {
      {"ftl.victim_select_ns", Ratio(t.victim_total_ns, d(t.victim_calls)), "ns",
       "H: per VictimPolicy::SelectVictim"},
      {"ftl.victim_select_calls", d(t.victim_calls), "count", ""},
      {"ftl.alloc_ns", Ratio(t.alloc_total_ns, d(t.alloc_calls)), "ns",
       "H: per AllocationPolicy::NextChip"},
      {"ftl.alloc_calls", d(t.alloc_calls), "count", ""},
      {"ftl.host_writes", d(s.host_writes), "count", ""},
      {"ftl.host_reads", d(s.host_reads), "count", ""},
      {"ftl.gc_page_copies", d(s.gc_page_copies), "count", ""},
      {"ftl.gc_erases", d(s.gc_erases), "count", ""},
      {"ftl.gc_background_blocks", d(s.gc_background_blocks), "count", ""},
      {"ftl.forced_releases", d(s.forced_releases), "count", ""},
      {"ftl.retained_released", d(s.retained_released), "count", ""},
      {"ftl.gc_stall_ms", static_cast<double>(s.gc_stall_time) / 1e3, "ms",
       "V: host writes blocked in foreground GC"},
      {"ftl.rollback_host_ms", Ratio(t.rollback_host_s * 1e3, trials), "ms",
       "H: per Ssd::RollBackNow"},
      {"ftl.rollback_entries", d(plain.rollback_entries), "count", ""},
      {"ftl.resident_mib", plain.ftl_resident_mib, "MiB", "FTL + NAND estimate"},
      {"nand.materialized_blocks", d(plain.nand_materialized_blocks), "count", ""},
      {"nand.resident_mib", plain.nand_resident_mib, "MiB", ""},
      {"fs.mkfs_s", Ratio(t.mkfs_s, trials), "s", "H: per trial"},
      {"fs.fsck_s", Ratio(t.fsck_s, trials), "s", "H: three fsck passes per trial"},
      {"fs.verify_s", Ratio(t.verify_s, trials), "s", "H: per trial"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (Metric& o : Outcomes(plain)) {
    if (o.name.rfind("core.", 0) != 0) m.push_back(o);
  }
  m.push_back({"trace.sim_ops_per_s", traced_ops, "1/s",
               "H: sim_ops_per_s with the decorators installed"});
  m.push_back({"trace.overhead_frac", 1.0 - Ratio(traced_ops, plain_ops), "frac",
               "H: 1 - traced / untraced sim_ops_per_s"});
  return m;
}

/// The decorators must be transparent: same FTL stats, completion stream
/// and virtual-time results with and without them.
void CheckTransparent(const Outcome& a, const Outcome& b,
                      std::vector<std::string>& errors) {
  if (a.ftl != b.ftl) errors.push_back("traced run changed FtlStats");
  if (a.completion_digest != b.completion_digest) {
    errors.push_back("traced run changed the completion stream");
  }
  if (a.read_us != b.read_us || a.write_us != b.write_us ||
      a.virtual_s != b.virtual_s || a.device_ops != b.device_ops) {
    errors.push_back("traced run changed virtual-time metrics");
  }
  if (a.victims_detected != b.victims_detected ||
      a.false_positives != b.false_positives ||
      a.detect_latency_s != b.detect_latency_s ||
      a.files_intact != b.files_intact || a.rollback_ms != b.rollback_ms) {
    errors.push_back("traced run changed detection or recovery outcomes");
  }
}

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %20.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string Json(bool correct, const Outcome& o,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(o.attempted) +
                    ", \"failed\": " + std::to_string(o.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet64|seed_gc|paper_recover "
                 "--seed N --seconds 10..60 --trace 0|1\n");
    return 2;
  }
  RunSpec spec;
  spec.seed = args.seed;
  spec.seconds = args.seconds;
  // Untraced runs repeat timed sections, enough to take a median over the
  // few-second swings of a shared host, and set up several times per
  // section so setup_s is a median too (fleet64's set-up is short). Traced
  // runs need one section (four trials) to time the layers.
  const bool fleet = args.workload == "fleet64";
  const bool seed_gc = args.workload == "seed_gc";
  const std::size_t trials = static_cast<std::size_t>(args.seconds / 2);
  if (args.trace == 1) {
    spec.reps = fleet || seed_gc ? 1 : 4;
    spec.setup_reps = 1;
  } else {
    spec.reps = fleet ? 3 : seed_gc ? 7 : trials;
    spec.setup_reps = fleet ? 5 : seed_gc ? 1 : 2;
  }

  std::vector<std::string> errors;
  const Outcome plain = Run(args.workload, spec);
  CheckOutcome(plain, errors);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(plain);
    Print(metrics);
    Print(Outcomes(plain));
    std::printf("timed sections: %.3f s wall, %.1f s virtual; ops/s:",
                plain.run_s, plain.virtual_s);
    for (double r : plain.ops_per_s) std::printf(" %.0f", r);
    std::printf("\n");
  } else {
    spec.traced = true;
    const Outcome traced = Run(args.workload, spec);
    CheckOutcome(traced, errors);
    CheckTransparent(plain, traced, errors);
    if (traced.trace.replayed && !traced.trace.replay_exact) {
      errors.push_back("detector replay differs from the device");
    }
    spec.traced = false;
    std::vector<std::string> harness;
    if (args.workload == "fleet64") {
      harness = perfbench::CheckFleetAgainstHarness(spec, plain);
    } else if (args.workload == "paper_recover") {
      harness = perfbench::CheckTrialAgainstHarness(spec, plain);
    }
    errors.insert(errors.end(), harness.begin(), harness.end());
    metrics = PerLayer(plain, traced);
    Print(metrics);
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("%s\n", Json(errors.empty(), plain, metrics).c_str());
  return errors.empty() ? 0 : 1;
}
