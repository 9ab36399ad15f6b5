#include "host/fleet.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "host/ssd.h"
#include "host/ssd_target.h"
#include "io/io_engine.h"
#include "workload/apps.h"
#include "workload/file_set.h"
#include "workload/ransomware.h"

namespace insider::host {

namespace {

/// Scatter `k` marks over `n` slots with a golden-fraction hop coprime to
/// `n`, so marks cover every residue class — in a fleet the slot index also
/// picks the queue pair (i % queue_count), and a stride that divides the
/// queue count would pile every mark onto one WRR service class.
/// Deterministic, no RNG.
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

SimTime P99(const std::deque<SimTime>& samples) {
  if (samples.empty()) return 0;
  std::vector<SimTime> v(samples.begin(), samples.end());
  std::size_t idx = (v.size() * 99) / 100;
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

}  // namespace

FleetResult RunFleet(const core::DecisionTree& tree,
                     const FleetConfig& config) {
  FleetResult result;
  const std::size_t n = config.tenants;
  if (n == 0) return result;

  SsdConfig scfg;
  scfg.ftl = config.ftl;
  scfg.detector = config.detector;
  scfg.detector_pool = config.pool;
  // The paper's read-only latch is device-wide; in a fleet sweep it would
  // let the *first* alarm clobber every other tenant's stream and poison
  // the per-tenant matrix. The harness models the "prompt the user" path
  // instead: detection state accumulates per namespace, nothing latches.
  scfg.auto_read_only = false;
  Ssd ssd(scfg, tree);

  Rng rng(config.seed ^ 0xF1EE7000F1EE7000ull);
  const Lba exported = ssd.Ftl().ExportedLbas();
  const Lba region = exported / static_cast<Lba>(n);

  // Victim head-count: the requested fraction, at least one per family so
  // every family appears in the matrix.
  std::size_t victims = static_cast<std::size_t>(
      config.victim_fraction * static_cast<double>(n) + 0.5);
  if (config.victim_fraction > 0.0 && !config.families.empty()) {
    victims = std::max(victims, std::min(config.families.size(), n));
  }
  if (config.families.empty()) victims = 0;
  victims = std::min(victims, n);

  std::vector<wl::TenantSpec> tenants;
  tenants.reserve(n);
  result.tenants.resize(n);
  std::vector<SimTime> attack_begin(n, 0);

  std::size_t victim_seen = 0;
  std::size_t benign_seen = 0;
  const std::size_t benign_total = n - victims;
  const std::size_t noisy_total = static_cast<std::size_t>(
      config.noisy_fraction * static_cast<double>(benign_total) + 0.5);
  const std::vector<char> victim_mark = ScatterMarks(victims, n);
  const std::vector<char> noisy_mark = ScatterMarks(noisy_total, benign_total);

  for (std::size_t i = 0; i < n; ++i) {
    const Lba region_start = region * static_cast<Lba>(i);
    FleetTenantResult& meta = result.tenants[i];
    meta.queue = config.queue_count == 0 ? 0 : i % config.queue_count;
    wl::TenantSpec spec;

    if (victim_mark[i] != 0) {
      // Victim: a file set in the front half of its region, the attack's
      // out-of-place copies in the back half.
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
      attack_begin[i] = trace.active_begin;

      spec.name = trace.name + "#" + std::to_string(i);
      spec.requests = std::move(trace.requests);
      spec.stamp_base = 0xEEEE000000000000ull + i * 100'000'000ull;
      spec.is_ransomware = true;
      meta.profile = family;
    } else {
      const bool noisy = noisy_mark[benign_seen] != 0;
      wl::AppKind kind =
          wl::kTenantApps[benign_seen % wl::kTenantApps.size()];
      ++benign_seen;

      wl::AppParams params;
      params.start_time = 0;
      params.duration = config.duration;
      params.region_start = region_start;
      params.region_blocks = region;
      params.intensity =
          noisy ? config.noisy_intensity : config.base_intensity;
      Rng app_rng = rng.Fork();
      wl::AppTrace trace = wl::GenerateApp(kind, params, app_rng);

      spec.name = trace.name + "#" + std::to_string(i);
      spec.requests = std::move(trace.requests);
      spec.stamp_base = (i + 1) * 100'000'000ull;
      meta.profile = wl::AppKindName(kind);
      meta.noisy = noisy;
    }
    meta.name = spec.name;
    meta.is_ransomware = spec.is_ransomware;
    tenants.push_back(std::move(spec));
  }

  // Engine: tenants multiplex over queue_count WRR pairs; the weight
  // rotation assigns each pair its service class.
  SsdTarget target(ssd);
  io::EngineConfig ecfg;
  ecfg.queue_count = std::max<std::size_t>(config.queue_count, 1);
  ecfg.arbiter = config.arbiter;
  ecfg.per_queue.resize(ecfg.queue_count);
  for (std::size_t q = 0; q < ecfg.queue_count; ++q) {
    io::QueueConfig& qc = ecfg.per_queue[q];
    qc.sq_depth = config.queue_depth;
    qc.weight = config.queue_weights.empty()
                    ? 1
                    : config.queue_weights[q % config.queue_weights.size()];
  }
  io::IoEngine engine(target, ecfg);
  ssd.AttachObs(config.tracer, config.metrics);
  engine.AttachObs(config.tracer, config.metrics);

  // Exact per-tenant percentiles: the fairness matrix must see every
  // command, not a ring-capped tail.
  wl::MultiTenantOptions mt_opts;
  mt_opts.sample_limit = 0;
  wl::MultiTenantDriver driver(std::move(tenants), mt_opts);
  wl::MultiTenantReport report = driver.Run(engine);
  result.status = report.status;
  if (result.status != wl::MultiTenantStatus::kOk) return result;

  // Settle the trailing detector slice so the last votes reach each score.
  ssd.IdleUntil(std::max(report.end_time, ssd.Clock().Now()) +
                config.detector.slice_length);

  result.total_dispatched = report.total_dispatched;
  result.end_time = report.end_time;
  result.total_iops = report.TotalIops();

  const core::DetectorPool& pool = ssd.Detectors();
  for (std::size_t i = 0; i < n; ++i) {
    FleetTenantResult& meta = result.tenants[i];
    const wl::TenantResult& t = report.tenants[i];
    meta.nsid = t.nsid;
    meta.weight = ecfg.per_queue[meta.queue].weight;
    meta.submitted = t.submitted;
    meta.completed = t.completed;
    meta.errors = t.errors;
    meta.stalls = t.stall_events;
    meta.mean_latency_us = t.latency_us.Mean();
    meta.p99_latency = P99(t.latencies);

    const core::Detector* d = pool.Peek(meta.nsid);
    if (d == nullptr) {
      meta.evicted = true;  // reclaimed under DRAM pressure, restartable
    } else {
      meta.alarm_time = d->FirstAlarmTime();
      meta.detected = meta.alarm_time.has_value();
      for (const core::SliceRecord& rec : d->History()) {
        meta.max_score = std::max(meta.max_score, rec.score);
      }
      if (meta.detected && meta.is_ransomware &&
          *meta.alarm_time > attack_begin[i]) {
        meta.detection_latency = *meta.alarm_time - attack_begin[i];
      }
    }

    if (meta.is_ransomware) {
      ++result.victims;
      if (meta.detected) ++result.detected_victims;
    } else {
      ++result.benign;
      if (meta.detected) ++result.false_positives;
    }
  }

  result.pool_instances = pool.InstanceCount();
  result.pool_bytes = pool.EstimatedBytes();
  result.pool_budget = config.pool.dram_budget_bytes;
  result.pool_evictions = pool.Pressure().evictions;
  result.pool_over_budget = pool.Pressure().over_budget;
  result.pool_pressure_events = pool.Pressure().events.size();
  result.pool_within_budget =
      pool.Pressure().WithinBudget(result.pool_bytes, result.pool_budget);
  return result;
}

}  // namespace insider::host
