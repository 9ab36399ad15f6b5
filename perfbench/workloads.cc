#include "workloads.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "core/detector_pool.h"
#include "core/pretrained.h"
#include "fs/file_system.h"
#include "fs/fsck.h"
#include "host/fleet.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "obs/metrics.h"
#include "quantile.h"
#include "seams.h"
#include "workload/apps.h"
#include "workload/file_set.h"
#include "workload/multi_tenant.h"
#include "workload/ransomware.h"

namespace perfbench {

using namespace insider;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}

// ---------------------------------------------------------------------------
// Fleet composition: the tenant set host::RunFleet builds, step for step.

/// host::RunFleet's victim/noisy placement: `k` marks over `n` slots with a
/// golden-fraction hop coprime to `n`.
std::vector<char> ScatterMarks(std::size_t k, std::size_t n) {
  std::vector<char> marks(n, 0);
  if (n == 0) return marks;
  k = std::min(k, n);
  std::size_t step = static_cast<std::size_t>(0.618 * static_cast<double>(n));
  if (step == 0) step = 1;
  while (std::gcd(step, n) != 1) ++step;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < k; ++i) {
    idx = (idx + step) % n;
    while (marks[idx] != 0) idx = (idx + 1) % n;
    marks[idx] = 1;
  }
  return marks;
}

constexpr wl::AppKind kTenantApps[] = {
    wl::AppKind::kWebSurfing,      wl::AppKind::kP2pDownload,
    wl::AppKind::kOutlookSync,     wl::AppKind::kSqliteMessenger,
    wl::AppKind::kInstall,         wl::AppKind::kOsUpdate,
    wl::AppKind::kVideoDecode,     wl::AppKind::kCompression,
};

struct Tenants {
  std::vector<wl::TenantSpec> specs;
  std::vector<SimTime> attack_begin;  ///< per tenant; victims only
};

/// Builds the tenant streams for a freshly constructed device (and may
/// precondition it).
using TenantBuilder = std::function<Tenants(host::Ssd& ssd)>;

host::FleetConfig Fleet64Config(const RunSpec& spec) {
  host::FleetConfig fc;  // 64 tenants, 8 WRR pairs at QD32, weights {1,2,4,8}
  fc.seed = spec.seed;
  fc.duration = Milliseconds(1200) * spec.seconds;  // 24 s at 20
  return fc;
}

Tenants BuildFleetTenants(const host::FleetConfig& config, Lba exported) {
  const std::size_t n = config.tenants;
  Tenants out;
  out.attack_begin.assign(n, 0);
  Rng rng(config.seed ^ 0xF1EE7000F1EE7000ull);
  const Lba region = exported / static_cast<Lba>(n);

  std::size_t victims = static_cast<std::size_t>(
      config.victim_fraction * static_cast<double>(n) + 0.5);
  if (config.victim_fraction > 0.0 && !config.families.empty()) {
    victims = std::max(victims, std::min(config.families.size(), n));
  }
  if (config.families.empty()) victims = 0;
  victims = std::min(victims, n);
  const std::size_t benign_total = n - victims;
  const std::size_t noisy_total = static_cast<std::size_t>(
      config.noisy_fraction * static_cast<double>(benign_total) + 0.5);
  const std::vector<char> victim_mark = ScatterMarks(victims, n);
  const std::vector<char> noisy_mark = ScatterMarks(noisy_total, benign_total);

  std::size_t victim_seen = 0;
  std::size_t benign_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Lba region_start = region * static_cast<Lba>(i);
    wl::TenantSpec spec;
    if (victim_mark[i] != 0) {
      const std::string& family =
          config.families[victim_seen % config.families.size()];
      ++victim_seen;
      wl::FileSet::Params fsp;
      fsp.file_count = config.fileset_files;
      fsp.region_start = region_start;
      fsp.region_blocks = region / 2;
      Rng fs_rng = rng.Fork();
      wl::FileSet files = wl::FileSet::Generate(fsp, fs_rng);
      wl::RansomwareRunParams rp;
      rp.start_time = config.attack_start;
      rp.scratch_start = region_start + region / 2;
      rp.max_duration = config.duration > config.attack_start
                            ? config.duration - config.attack_start
                            : 0;
      Rng r_rng = rng.Fork();
      wl::RansomwareTrace trace = wl::GenerateRansomware(
          wl::RansomwareProfileByName(family), files, rp, r_rng);
      out.attack_begin[i] = trace.active_begin;
      spec.name = trace.name + "#" + std::to_string(i);
      spec.requests = std::move(trace.requests);
      spec.stamp_base = 0xEEEE000000000000ull + i * 100'000'000ull;
      spec.is_ransomware = true;
    } else {
      const bool noisy = noisy_mark[benign_seen] != 0;
      wl::AppKind kind =
          kTenantApps[benign_seen % (sizeof(kTenantApps) / sizeof(kTenantApps[0]))];
      ++benign_seen;
      wl::AppParams params;
      params.start_time = 0;
      params.duration = config.duration;
      params.region_start = region_start;
      params.region_blocks = region;
      params.intensity = noisy ? config.noisy_intensity : config.base_intensity;
      Rng app_rng = rng.Fork();
      wl::AppTrace trace = wl::GenerateApp(kind, params, app_rng);
      spec.name = trace.name + "#" + std::to_string(i);
      spec.requests = std::move(trace.requests);
      spec.stamp_base = (i + 1) * 100'000'000ull;
    }
    out.specs.push_back(std::move(spec));
  }
  return out;
}

host::SsdConfig FleetSsdConfig(const host::FleetConfig& config) {
  host::SsdConfig scfg;
  scfg.ftl = config.ftl;
  scfg.detector = config.detector;
  scfg.detector_pool = config.pool;
  scfg.auto_read_only = false;
  return scfg;
}

io::EngineConfig FleetEngineConfig(const host::FleetConfig& config) {
  io::EngineConfig ecfg;
  ecfg.queue_count = std::max<std::size_t>(config.queue_count, 1);
  ecfg.arbiter = config.arbiter;
  ecfg.shard_threads = config.shard_threads;
  ecfg.per_queue.resize(ecfg.queue_count);
  for (std::size_t q = 0; q < ecfg.queue_count; ++q) {
    ecfg.per_queue[q].sq_depth = config.queue_depth;
    ecfg.per_queue[q].weight =
        config.queue_weights[q % config.queue_weights.size()];
  }
  return ecfg;
}

// ---------------------------------------------------------------------------
// Virtual latency by direction

/// Splits one tenant's completions into read and write latencies. A
/// completion carries its latency and completion time, so its due time is
/// their difference; the tenant's own stream says which direction was due
/// then. Due times shared by a read and a write of one tenant are counted
/// in `ambiguous` and left out.
void SplitByDirection(const wl::TenantSpec& spec, const wl::TenantResult& r,
                      Outcome& out) {
  const std::vector<IoRequest>& reqs = spec.requests;
  for (std::size_t k = 0; k < r.latencies.size(); ++k) {
    const SimTime latency = r.latencies[k];
    const SimTime due = r.complete_times[k] - latency;
    auto lo = std::lower_bound(
        reqs.begin(), reqs.end(), due,
        [](const IoRequest& q, SimTime t) { return q.time < t; });
    bool reads = false;
    bool writes = false;
    for (auto it = lo; it != reqs.end() && it->time == due; ++it) {
      reads = reads || it->mode == IoMode::kRead;
      writes = writes || it->mode == IoMode::kWrite;
    }
    if (reads && writes) {
      ++out.ambiguous_modes;
    } else if (reads) {
      out.read_us.push_back(latency);
    } else if (writes) {
      out.write_us.push_back(latency);
    }
  }
}

// ---------------------------------------------------------------------------
// Detector replay

int MaxScore(const core::Detector& d) {
  int m = 0;
  for (const core::SliceRecord& rec : d.History()) m = std::max(m, rec.score);
  return m;
}

/// Replays the header stream the device's detectors saw into a standalone
/// core::DetectorPool, timing header updates and slice closes apart, and
/// checks the replayed per-namespace max score and first alarm time against
/// the device's.
void ReplayHeaders(const std::vector<IoRequest>& headers, SimTime settle,
                   const host::SsdConfig& scfg,
                   const core::DetectorPool& device, LayerTrace& trace) {
  core::DetectorPool pool(scfg.detector, scfg.detector_pool,
                          core::PretrainedTree());
  double on_request_ns = 0.0;
  double close_ns = 0.0;
  for (const IoRequest& h : headers) {
    core::Detector& d = pool.ForNamespace(h.nsid);
    if (d.NextSliceEnd() <= h.time) {
      const Clock::time_point t0 = Clock::now();
      d.AdvanceTo(h.time);
      close_ns += NsBetween(t0, Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    pool.OnRequest(h.nsid, h);
    on_request_ns += NsBetween(t0, Clock::now());
  }
  const Clock::time_point t0 = Clock::now();
  pool.AdvanceAllTo(settle);
  close_ns += NsBetween(t0, Clock::now());

  bool exact = pool.InstanceCount() == device.InstanceCount();
  std::uint64_t slices = 0;
  pool.ForEach([&](core::NamespaceId ns, const core::Detector& d) {
    if (!d.History().empty()) slices += d.History().back().slice + 1;
    const core::Detector* dev = device.Peek(ns);
    exact = exact && dev != nullptr && MaxScore(*dev) == MaxScore(d) &&
            dev->FirstAlarmTime() == d.FirstAlarmTime();
  });
  trace.replayed = true;
  trace.replay_exact = exact;
  trace.on_request_total_ns = on_request_ns;
  trace.headers = headers.size();
  trace.slice_close_total_ns = close_ns;
  trace.slices_closed = slices;
  trace.instances = pool.InstanceCount();
}

void RecordResidency(const ftl::PageFtl& f, Outcome& out) {
  out.ftl_resident_mib = std::max(
      out.ftl_resident_mib, static_cast<double>(f.ResidentBytesEstimate()) / kMiB);
  out.nand_resident_mib =
      std::max(out.nand_resident_mib,
               static_cast<double>(f.Nand().ResidentBytesEstimate()) / kMiB);
  out.nand_materialized_blocks =
      std::max(out.nand_materialized_blocks, f.Nand().MaterializedBlocks());
}

/// Installs the timed policy decorators on a fresh device's FTL.
std::pair<TimedVictimPolicy*, TimedAllocationPolicy*> InstallTimedPolicies(
    ftl::PageFtl& f) {
  auto victim =
      std::make_unique<TimedVictimPolicy>(ftl::MakeVictimPolicy(f.Config()));
  auto alloc = std::make_unique<TimedAllocationPolicy>(
      ftl::MakeAllocationPolicy(f.Config()));
  std::pair<TimedVictimPolicy*, TimedAllocationPolicy*> raw{victim.get(),
                                                            alloc.get()};
  f.SetVictimPolicy(std::move(victim));
  f.SetAllocationPolicy(std::move(alloc));
  return raw;
}

void RecordPolicyTimes(TimedVictimPolicy& victim, TimedAllocationPolicy& alloc,
                       LayerTrace& trace) {
  trace.victim_total_ns += victim.Timer().TotalNs();
  trace.victim_calls += victim.Timer().Calls();
  trace.alloc_total_ns += alloc.Timer().TotalNs();
  trace.alloc_calls += alloc.Timer().Calls();
}

// ---------------------------------------------------------------------------
// Engine workloads (fleet64, seed_gc)

Outcome RunEngineOnce(const RunSpec& spec, const host::SsdConfig& scfg,
                      const io::EngineConfig& ecfg, const TenantBuilder& build,
                      bool audit_ftl) {
  Outcome out;
  std::unique_ptr<host::Ssd> ssd;
  Tenants tenants;
  std::pair<TimedVictimPolicy*, TimedAllocationPolicy*> policies{};
  for (std::size_t rep = 0; rep < std::max<std::size_t>(spec.setup_reps, 1);
       ++rep) {
    ssd.reset();
    tenants = Tenants{};
    const Clock::time_point t0 = Clock::now();
    ssd = std::make_unique<host::Ssd>(scfg, core::PretrainedTree());
    // Before any write: a policy swapped in later would restart the
    // allocation cursor and change what the device does.
    if (spec.traced) policies = InstallTimedPolicies(ssd->Ftl());
    tenants = build(*ssd);
    out.setup_s.push_back(SecondsSince(t0));
  }
  host::SsdTarget target(*ssd);
  std::optional<TimedTarget> timed;
  obs::MetricsRegistry metrics;
  if (spec.traced) {
    timed.emplace(target);
    policies.first->Timer().Reset();  // count the timed section only
    policies.second->Timer().Reset();
  }
  io::DeviceTarget& device =
      spec.traced ? static_cast<io::DeviceTarget&>(*timed) : target;
  io::IoEngine engine(device, ecfg);
  if (spec.traced) {
    ssd->AttachObs(nullptr, &metrics);
    engine.AttachObs(nullptr, &metrics);
  }
  wl::MultiTenantOptions opts;
  opts.sample_limit = 0;  // every completion, for exact percentiles
  wl::MultiTenantDriver driver(std::move(tenants.specs), opts);
  const std::vector<wl::TenantSpec>& specs = driver.Tenants();
  for (const wl::TenantSpec& t : specs) out.attempted += t.requests.size();

  const Clock::time_point t0 = Clock::now();
  wl::MultiTenantReport report = driver.Run(engine);
  const double wl_run_s = SecondsSince(t0);
  const SimTime settle = std::max(report.end_time, ssd->Clock().Now()) +
                         scfg.detector.slice_length;
  ssd->IdleUntil(settle);
  out.run_s = SecondsSince(t0);
  out.ops_per_s.push_back(static_cast<double>(report.total_dispatched) /
                          out.run_s);

  if (report.status != wl::MultiTenantStatus::kOk) {
    out.errors.push_back(std::string("driver refused the tenant set: ") +
                         wl::MultiTenantStatusName(report.status));
    out.failed = out.attempted;
    return out;
  }
  out.device_ops = report.total_dispatched;
  out.end_time = report.end_time;
  out.virtual_s = ToSeconds(report.end_time - report.first_submit_time);
  out.engine = engine.Stats();
  out.ftl.push_back(ssd->Ftl().Stats());
  RecordResidency(ssd->Ftl(), out);

  // Per-tenant accounting, detection outcome and the completion digest.
  const core::DetectorPool& pool = ssd->Detectors();
  std::uint64_t completed = 0;
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const wl::TenantResult& r = report.tenants[i];
    TenantOutcome t;
    t.submitted = r.submitted;
    t.completed = r.completed;
    t.errors = r.errors;
    t.stalls = r.stall_events;
    if (const core::Detector* d = pool.Peek(r.nsid)) {
      t.detected = d->FirstAlarmTime().has_value();
      t.alarm_time = d->FirstAlarmTime().value_or(-1);
      t.max_score = MaxScore(*d);
    }
    if (specs[i].is_ransomware) {
      ++out.victims;
      if (t.detected) ++out.victims_detected;
      if (t.detected && t.alarm_time > tenants.attack_begin[i]) {
        out.detect_latency_s.push_back(
            ToSeconds(t.alarm_time - tenants.attack_begin[i]));
      }
    } else {
      ++out.benign;
      if (t.detected) ++out.false_positives;
    }
    out.tenants.push_back(t);
    out.stalls += r.stall_events;
    out.failed += r.errors;
    completed += r.completed;
    for (std::size_t k = 0; k < r.latencies.size(); ++k) {
      digest = Mix(Mix(digest, static_cast<std::uint64_t>(r.latencies[k])),
                   static_cast<std::uint64_t>(r.complete_times[k]));
    }
    digest = Mix(digest, static_cast<std::uint64_t>(t.alarm_time));
    SplitByDirection(specs[i], r, out);
  }
  out.completion_digest = digest;
  // Latencies keep every completion; a failed one would need counting as
  // missing any latency limit, so these workloads must have none.
  if (out.failed != 0) {
    out.errors.push_back(std::to_string(out.failed) + " commands failed");
  }
  out.failed += out.attempted - std::min(out.attempted, completed);
  if (completed != out.attempted) {
    out.errors.push_back("completed " + std::to_string(completed) + " of " +
                         std::to_string(out.attempted) + " commands");
  }
  if (out.engine.read_retries != 0) {
    out.errors.push_back("read retries make per-direction latency inexact");
  }
  if (audit_ftl) {
    const std::string violation = ssd->Ftl().CheckInvariants();
    if (!violation.empty()) {
      out.errors.push_back("FTL invariant violated: " + violation);
    }
  }

  if (spec.traced) {
    LayerTrace& tr = out.trace;
    tr.wl_run_s = wl_run_s;
    tr.dispatch_total_ns = timed->DispatchTimer().TotalNs();
    tr.dispatch_calls = timed->DispatchTimer().Calls();
    std::vector<float> samples = timed->DispatchTimer().Samples();
    tr.dispatch_p999_ns = Quantile(samples, 0.999);
    tr.redrive_total_ns = timed->RedriveTimer().TotalNs();
    tr.firmware_total_ns = timed->FirmwareTimer().TotalNs();
    tr.firmware_calls = timed->FirmwareTimer().Calls();
    RecordPolicyTimes(*policies.first, *policies.second, tr);
    tr.queue_wait_p999_us =
        metrics.GetHistogram("engine.queue_wait_us").Quantile(0.999);
    tr.device_p999_us = metrics.GetHistogram("engine.device_us").Quantile(0.999);
    ReplayHeaders(timed->Headers(), settle, scfg, pool, tr);
  }
  return out;
}

/// Runs the identical engine workload spec.reps times and keeps the first
/// outcome, with every repetition's host times added to it. `audit_ftl`
/// cross-checks the FTL's state stores after the first timed section.
Outcome RunThroughEngine(const RunSpec& spec, const host::SsdConfig& scfg,
                         const io::EngineConfig& ecfg,
                         const TenantBuilder& build, bool audit_ftl) {
  Outcome out = RunEngineOnce(spec, scfg, ecfg, build, audit_ftl);
  for (std::size_t rep = 1; rep < spec.reps; ++rep) {
    Outcome again = RunEngineOnce(spec, scfg, ecfg, build, false);
    out.setup_s.insert(out.setup_s.end(), again.setup_s.begin(),
                       again.setup_s.end());
    out.ops_per_s.insert(out.ops_per_s.end(), again.ops_per_s.begin(),
                         again.ops_per_s.end());
    out.run_s += again.run_s;
    if (again.ftl != out.ftl ||
        again.completion_digest != out.completion_digest) {
      out.errors.push_back("repetition " + std::to_string(rep + 1) +
                           " differs from the first: the run is not "
                           "deterministic");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// paper_recover: one Table II trial, composed like host::RunConsistencyTrial
// but with the filesystem and fsck running on a fs::BlockDevice the traced
// run can wrap.

std::vector<std::byte> RandomBytes(Rng& rng, std::uint64_t size) {
  std::vector<std::byte> out(size);
  std::uint64_t word = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    if (i % 8 == 0) word = rng();
    out[i] = static_cast<std::byte>(word & 0xFF);
    word >>= 8;
  }
  return out;
}

struct TrialInputs {
  struct File {
    std::string path;
    std::vector<std::byte> plain;
    std::vector<std::byte> cipher;
  };
  std::vector<File> files;
  std::vector<std::byte> download_chunk;
  std::vector<std::size_t> attack_order;
};

/// All of a trial's random inputs, drawn in host::RunConsistencyTrial's
/// order (file sizes and contents, download chunk, attack order). None of
/// them depends on device state, so they are made before the timed part.
TrialInputs MakeTrialInputs(const host::ConsistencyTrialConfig& config) {
  TrialInputs in;
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  const std::uint8_t key = 0xA5;
  for (std::size_t i = 0; i < config.file_count; ++i) {
    TrialInputs::File f;
    f.path = "/doc" + std::to_string(i);
    std::uint64_t size =
        config.file_min_bytes +
        rng.Below(config.file_max_bytes - config.file_min_bytes + 1);
    f.plain = RandomBytes(rng, size);
    f.cipher.resize(f.plain.size());
    for (std::size_t b = 0; b < f.plain.size(); ++b) {
      f.cipher[b] = f.plain[b] ^ std::byte{key};
    }
    in.files.push_back(std::move(f));
  }
  if (config.writer_phase > 0) in.download_chunk = RandomBytes(rng, 256 * 1024);
  in.attack_order.resize(in.files.size());
  std::iota(in.attack_order.begin(), in.attack_order.end(), 0);
  for (std::size_t i = in.attack_order.size(); i > 1; --i) {
    std::swap(in.attack_order[i - 1], in.attack_order[rng.Below(i)]);
  }
  return in;
}

host::ConsistencyTrialConfig PaperTrialConfig(std::uint64_t seed) {
  host::ConsistencyTrialConfig cc;
  cc.geometry = nand::Geometry::PaperScale();
  cc.seed = seed;
  return cc;
}

std::uint64_t TrialSeed(const RunSpec& spec, std::size_t trial) {
  return spec.seed * 1000 + trial + 1;
}

/// Runs one trial; `dev` is the device itself or a decorator around it.
host::ConsistencyTrialResult RunTrial(const host::ConsistencyTrialConfig& config,
                                      const TrialInputs& in, host::Ssd& ssd,
                                      fs::BlockDevice& dev, Outcome& out) {
  host::ConsistencyTrialResult result;
  LayerTrace& tr = out.trace;
  auto timed_fs_op = [&](std::vector<SimTime>& lat, auto&& op) {
    const SimTime before = ssd.Clock().Now();
    fs::FsStatus st = op();
    lat.push_back(ssd.Clock().Now() - before);
    return st;
  };

  Clock::time_point t0 = Clock::now();
  if (fs::FileSystem::Mkfs(dev, 512) != fs::FsStatus::kOk) return result;
  tr.mkfs_s += SecondsSince(t0);
  auto mounted = fs::FileSystem::Mount(dev);
  if (!mounted) return result;
  fs::FileSystem fsys = std::move(*mounted);
  for (const TrialInputs::File& f : in.files) {
    if (fsys.CreateFile(f.path) != fs::FsStatus::kOk) return result;
    if (timed_fs_op(out.write_us, [&] {
          return fsys.WriteFile(f.path, 0, f.plain);
        }) != fs::FsStatus::kOk) {
      return result;
    }
  }
  result.files_total = in.files.size();
  if (fsys.Sync() != fs::FsStatus::kOk) return result;
  ssd.IdleUntil(ssd.Clock().Now() + config.settle_time);

  fsys.SetLazyMetadata(true);
  if (config.writer_phase > 0) {
    const char* dl = "/download.bin";
    if (fsys.CreateFile(dl) != fs::FsStatus::kOk) return result;
    SimTime writer_end = ssd.Clock().Now() + config.writer_phase;
    std::uint64_t off = 0;
    while (ssd.Clock().Now() < writer_end) {
      if (timed_fs_op(out.write_us, [&] {
            return fsys.WriteFile(dl, off, in.download_chunk);
          }) != fs::FsStatus::kOk) {
        break;
      }
      off += in.download_chunk.size();
      ssd.Clock().Advance(TruncateMicros(
          static_cast<double>(in.download_chunk.size()) /
          config.writer_rate_mbps));
    }
  }
  // An alarm before the attack starts is a false positive.
  if (ssd.AlarmActive()) ++out.false_positives;
  ++out.benign;

  const SimTime attack_start = ssd.Clock().Now();
  const std::uint64_t kChunk = 256 * 1024;
  std::vector<std::byte> scratch(kChunk);
  bool device_refused = false;
  for (std::size_t idx : in.attack_order) {
    if (ssd.AlarmActive() || device_refused) break;
    const TrialInputs::File& f = in.files[idx];
    for (std::uint64_t off = 0; off < f.plain.size(); off += kChunk) {
      if (ssd.AlarmActive()) break;
      std::uint64_t len = std::min<std::uint64_t>(kChunk, f.plain.size() - off);
      std::uint64_t n = 0;
      if (timed_fs_op(out.read_us, [&] {
            return fsys.ReadFile(f.path, off,
                                 std::span<std::byte>(scratch).first(len), &n);
          }) != fs::FsStatus::kOk) {
        device_refused = true;
        break;
      }
      ssd.Clock().Advance(
          TruncateMicros(static_cast<double>(len) / config.attack_rate_mbps));
      // A write the latched device refuses is the defense working; its
      // latency is not a host write's, so only completed writes are kept.
      const SimTime before = ssd.Clock().Now();
      if (fsys.WriteFile(
              f.path, off,
              std::span<const std::byte>(f.cipher).subspan(off, len)) !=
          fs::FsStatus::kOk) {
        device_refused = true;
        break;
      }
      out.write_us.push_back(ssd.Clock().Now() - before);
    }
  }

  result.detected = ssd.AlarmActive();
  if (!result.detected) return result;
  result.detection_latency = *ssd.FirstAlarmTime() - attack_start;

  t0 = Clock::now();
  ftl::RollbackReport rb = ssd.RollBackNow();
  tr.rollback_host_s += SecondsSince(t0);
  result.rolled_back = true;
  result.rollback_duration = rb.duration;
  ssd.Reboot();

  t0 = Clock::now();
  result.fsck_before = fs::Fsck(dev, /*repair=*/false);
  fs::Fsck(dev, /*repair=*/true);
  result.clean_after_repair = fs::Fsck(dev, /*repair=*/false).Clean();
  tr.fsck_s += SecondsSince(t0);

  t0 = Clock::now();
  auto remounted = fs::FileSystem::Mount(dev);
  if (!remounted) return result;
  fs::FileSystem verify = std::move(*remounted);
  for (const TrialInputs::File& f : in.files) {
    std::vector<std::byte> got(f.plain.size());
    std::uint64_t n = 0;
    bool readable =
        verify.Exists(f.path) &&
        timed_fs_op(out.read_us, [&] {
          return verify.ReadFile(f.path, 0, got, &n);
        }) == fs::FsStatus::kOk &&
        n == f.plain.size();
    if (readable && got == f.plain) {
      ++result.files_intact;
    } else if (readable && got == f.cipher) {
      ++result.files_encrypted;
    } else {
      ++result.files_corrupt;
    }
  }
  tr.verify_s += SecondsSince(t0);
  return result;
}

std::string DescribeTrial(const host::ConsistencyTrialResult& r) {
  return "detected=" + std::to_string(r.detected) +
         " rolled_back=" + std::to_string(r.rolled_back) +
         " latency_us=" + std::to_string(r.detection_latency) +
         " rollback_us=" + std::to_string(r.rollback_duration) +
         " fsck_before={" + r.fsck_before.ToString() + "}" +
         " clean=" + std::to_string(r.clean_after_repair) +
         " files=" + std::to_string(r.files_total) + "/" +
         std::to_string(r.files_intact) + "/" +
         std::to_string(r.files_encrypted) + "/" +
         std::to_string(r.files_corrupt);
}

}  // namespace

Outcome RunFleet64(const RunSpec& spec) {
  const host::FleetConfig fc = Fleet64Config(spec);
  Outcome out = RunThroughEngine(
      spec, FleetSsdConfig(fc), FleetEngineConfig(fc),
      [&](host::Ssd& ssd) {
        return BuildFleetTenants(fc, ssd.Ftl().ExportedLbas());
      },
      /*audit_ftl=*/false);
  out.tail_level = 0.999;
  return out;
}

/// Brings a fresh device to GC steady state: every exported LBA written
/// once in order, then as many uniform random overwrites, straight through
/// the FTL (factory preconditioning, unseen by the detector). Returns the
/// virtual time host traffic may start: after the retention window has
/// passed over the last preconditioning write and the firmware has caught
/// up.
SimTime Precondition(host::Ssd& ssd, Rng& rng) {
  ftl::PageFtl& f = ssd.Ftl();
  const Lba exported = f.ExportedLbas();
  SimTime now = 0;
  auto write = [&](Lba lba, SimTime gap) {
    nand::PageData data;
    data.stamp = lba;
    (void)f.WritePage(lba, std::move(data), now);
    now += gap;
  };
  // The fill creates no old versions, so it runs at the array's program
  // bandwidth; the overwrites run at the workload's own write rate, so the
  // retention window holds as many old versions as it will under load.
  for (Lba lba = 0; lba < exported; ++lba) write(lba, 10);
  for (Lba i = 0; i < exported; ++i) write(rng.Below(exported), 1'400);
  const SimTime start = now + f.Config().retention_window + Seconds(1);
  ssd.IdleUntil(start);
  f.ResetStats();  // FtlStats then count host traffic only
  return start;
}

Outcome RunSeedGc(const RunSpec& spec) {
  constexpr std::size_t kHosts = 8;
  constexpr double kOfferedPerSecond = 1000.0;  // all hosts together
  constexpr double kWriteShare = 0.7;

  host::SsdConfig scfg;
  scfg.ftl.geometry = nand::Geometry::Seed();
  scfg.ftl.exported_fraction = 0.7;
  scfg.auto_read_only = false;  // a false alarm must not stop the load
  io::EngineConfig ecfg;
  ecfg.queue_count = kHosts;
  ecfg.queue.sq_depth = 32;
  const SimTime duration = Seconds(40) * spec.seconds;  // 800 s at 20

  Outcome out = RunThroughEngine(spec, scfg, ecfg, [&](host::Ssd& ssd) {
    Tenants t;
    Rng rng(spec.seed ^ 0x5EEDC0DE5EEDC0DEull);
    const SimTime start = Precondition(ssd, rng);
    const Lba exported = ssd.Ftl().ExportedLbas();
    const double mean_gap_us = 1e6 * kHosts / kOfferedPerSecond;
    for (std::size_t h = 0; h < kHosts; ++h) {
      Rng host_rng = rng.Fork();
      wl::TenantSpec s;
      s.name = "uniform#" + std::to_string(h);
      s.stamp_base = (h + 1) * 1'000'000'000ull;
      // Open loop: Poisson arrivals, strictly increasing due times.
      SimTime now = start;
      for (;;) {
        now += 1 + TruncateMicros(host_rng.Exponential(mean_gap_us));
        if (now >= start + duration) break;
        IoRequest req;
        req.time = now;
        req.lba = host_rng.Below(exported);
        req.length = 1;
        req.mode = host_rng.Chance(kWriteShare) ? IoMode::kWrite : IoMode::kRead;
        s.requests.push_back(req);
      }
      t.specs.push_back(std::move(s));
    }
    t.attack_begin.assign(kHosts, 0);
    return t;
  }, /*audit_ftl=*/true);
  out.tail_level = 0.999;
  // One shared detector serves all hosts: it is the one benign instance.
  out.benign = 1;
  out.false_positives =
      std::any_of(out.tenants.begin(), out.tenants.end(),
                  [](const TenantOutcome& t) { return t.detected; })
          ? 1
          : 0;
  return out;
}

Outcome RunPaperRecover(const RunSpec& spec) {
  Outcome out;
  const std::size_t trials = std::max<std::size_t>(spec.reps, 1);
  // Every trial reads back each of its documents, so this many reads at
  // least; the level is fixed before the run so it cannot vary by seed.
  out.tail_level =
      HighestTailLevel(trials * PaperTrialConfig(0).file_count);
  for (std::size_t t = 0; t < trials; ++t) {
    const host::ConsistencyTrialConfig cc = PaperTrialConfig(TrialSeed(spec, t));
    host::SsdConfig sc;
    sc.ftl.geometry = cc.geometry;
    sc.detector = cc.detector;

    TrialInputs inputs;
    std::unique_ptr<host::Ssd> ssd;
    for (std::size_t rep = 0; rep < std::max<std::size_t>(spec.setup_reps, 1);
         ++rep) {
      ssd.reset();
      const Clock::time_point t0 = Clock::now();
      inputs = MakeTrialInputs(cc);
      ssd = std::make_unique<host::Ssd>(sc, core::PretrainedTree());
      out.setup_s.push_back(SecondsSince(t0));
    }

    std::optional<TimedBlockDevice> timed;
    std::pair<TimedVictimPolicy*, TimedAllocationPolicy*> policies{};
    if (spec.traced) {
      timed.emplace(*ssd);
      policies = InstallTimedPolicies(ssd->Ftl());
    }
    fs::BlockDevice& dev =
        spec.traced ? static_cast<fs::BlockDevice&>(*timed) : *ssd;

    const SimTime v0 = ssd->Clock().Now();
    const Clock::time_point t0 = Clock::now();
    host::ConsistencyTrialResult r = RunTrial(cc, inputs, *ssd, dev, out);
    const double run_s = SecondsSince(t0);
    out.run_s += run_s;
    out.virtual_s += ToSeconds(ssd->Clock().Now() - v0);

    const ftl::FtlStats& st = ssd->Ftl().Stats();
    const std::uint64_t ops = st.host_reads + st.host_writes + st.host_trims;
    out.ftl.push_back(st);
    out.device_ops += ops;
    out.ops_per_s.push_back(static_cast<double>(ops) / run_s);
    out.rollback_entries += st.rollback_entries;
    RecordResidency(ssd->Ftl(), out);
    if (spec.traced) {
      out.trace.block_io_total_ns += timed->IoTimer().TotalNs();
      out.trace.block_io_calls += timed->IoTimer().Calls();
      RecordPolicyTimes(*policies.first, *policies.second, out.trace);
    }

    ++out.victims;
    out.attempted += inputs.files.size();
    out.files_total += inputs.files.size();
    out.files_intact += r.files_intact;
    out.failed += inputs.files.size() - r.files_intact;
    if (r.detected) {
      ++out.victims_detected;
      out.detect_latency_s.push_back(ToSeconds(r.detection_latency));
      out.rollback_ms.push_back(ToSeconds(r.rollback_duration) * 1e3);
    }
    const std::string tag = "trial seed " + std::to_string(cc.seed) + ": ";
    if (!r.detected) out.errors.push_back(tag + "attack not detected");
    if (r.detected && !r.clean_after_repair) {
      out.errors.push_back(tag + "fsck not clean after repair");
    }
    if (r.files_intact != inputs.files.size()) {
      out.errors.push_back(tag + std::to_string(r.files_intact) + " of " +
                           std::to_string(inputs.files.size()) +
                           " files byte-exact");
    }
    out.completion_digest =
        Mix(out.completion_digest, std::hash<std::string>{}(DescribeTrial(r)));
    out.trials.push_back(r);
  }
  for (SimTime v : out.read_us) {
    out.completion_digest = Mix(out.completion_digest, static_cast<std::uint64_t>(v));
  }
  for (SimTime v : out.write_us) {
    out.completion_digest = Mix(out.completion_digest, static_cast<std::uint64_t>(v));
  }
  return out;
}

std::vector<std::string> CheckFleetAgainstHarness(const RunSpec& spec,
                                                  const Outcome& outcome) {
  std::vector<std::string> diffs;
  const host::FleetResult ref =
      host::RunFleet(core::PretrainedTree(), Fleet64Config(spec));
  if (ref.total_dispatched != outcome.device_ops) {
    diffs.push_back("dispatched " + std::to_string(outcome.device_ops) +
                    " vs RunFleet " + std::to_string(ref.total_dispatched));
  }
  if (ref.end_time != outcome.end_time) diffs.push_back("end_time differs");
  if (ref.tenants.size() != outcome.tenants.size()) {
    diffs.push_back("tenant count differs");
    return diffs;
  }
  for (std::size_t i = 0; i < ref.tenants.size(); ++i) {
    const host::FleetTenantResult& a = ref.tenants[i];
    const TenantOutcome& b = outcome.tenants[i];
    const bool same =
        a.detected == b.detected && a.max_score == b.max_score &&
        a.alarm_time.value_or(-1) == b.alarm_time &&
        a.submitted == b.submitted && a.completed == b.completed &&
        a.errors == b.errors && a.stalls == b.stalls;
    if (!same) diffs.push_back("tenant " + a.name + " differs from RunFleet");
  }
  if (ref.detected_victims != outcome.victims_detected ||
      ref.false_positives != outcome.false_positives) {
    diffs.push_back("detection matrix differs from RunFleet");
  }
  return diffs;
}

std::vector<std::string> CheckTrialAgainstHarness(const RunSpec& spec,
                                                  const Outcome& outcome) {
  if (outcome.trials.empty()) return {"no trial ran"};
  const host::ConsistencyTrialResult ref = host::RunConsistencyTrial(
      core::PretrainedTree(), PaperTrialConfig(TrialSeed(spec, 0)));
  const std::string a = DescribeTrial(ref);
  const std::string b = DescribeTrial(outcome.trials.front());
  if (a == b) return {};
  return {"trial differs from RunConsistencyTrial: " + b + " vs " + a};
}

}  // namespace perfbench
