#include "host/experiment.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "fs/file_system.h"
#include "host/ssd_target.h"

namespace insider::host {

// ---------------------------------------------------------------------------
// Detection runs

DetectionRun RunDetection(const core::DecisionTree& tree,
                          const core::DetectorConfig& config,
                          const std::vector<wl::TaggedRequest>& merged,
                          SimTime scored_from) {
  // Offline replay reads every slice back, so opt out of the firmware ring
  // cap regardless of what the caller's device config says.
  core::DetectorConfig full_history = config;
  full_history.history_limit = 0;
  core::Detector detector(full_history, tree);
  SimTime last_time = 0;
  for (const wl::TaggedRequest& t : merged) {
    detector.OnRequest(t.request);
    last_time = std::max(last_time, t.request.time);
  }
  detector.AdvanceTo(last_time + config.slice_length);

  DetectionRun run;
  run.slices.assign(detector.History().begin(), detector.History().end());
  for (const core::SliceRecord& rec : run.slices) {
    run.max_score = std::max(run.max_score, rec.score);
    if (rec.end_time >= scored_from) {
      run.max_score_scored = std::max(run.max_score_scored, rec.score);
      if (!run.alarm_time && rec.score >= config.score_threshold) {
        run.alarm_time = rec.end_time;
      }
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Fig. 7 accuracy sweep

std::vector<CategoryAccuracy> EvaluateAccuracy(
    const core::DecisionTree& tree, const std::vector<ScenarioSpec>& specs,
    const AccuracyConfig& config) {
  struct Tally {
    // Per threshold 1..N: counts of flagged benign runs / missed attacks.
    std::vector<std::size_t> far_hits;
    std::vector<std::size_t> frr_misses;
    std::size_t benign_runs = 0;
    std::size_t ransom_runs = 0;
  };
  std::size_t nth = config.detector.window_slices;
  std::map<wl::AppCategory, Tally> tallies;

  std::uint64_t seed = config.base_seed;
  for (const ScenarioSpec& spec : specs) {
    wl::AppCategory category = wl::CategoryOf(spec.app);
    Tally& tally = tallies[category];
    if (tally.far_hits.empty()) {
      tally.far_hits.assign(nth + 1, 0);
      tally.frr_misses.assign(nth + 1, 0);
    }

    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      std::uint64_t s = seed++;
      if (!spec.ransomware.empty()) {
        // Attack run: score only the attack's active period.
        BuiltScenario built = BuildScenario(spec, config.scenario, s);
        DetectionRun run = RunDetection(tree, config.detector, built.merged,
                                        built.ransom.active_begin);
        ++tally.ransom_runs;
        for (std::size_t th = 1; th <= nth; ++th) {
          if (run.max_score_scored < static_cast<int>(th)) {
            ++tally.frr_misses[th];
          }
        }
      }
      // Benign run of the same background (FAR), unless the scenario is
      // ransomware-only (no background to false-alarm on).
      if (spec.app != wl::AppKind::kNone) {
        ScenarioSpec benign = spec;
        benign.ransomware.clear();
        BuiltScenario built = BuildScenario(benign, config.scenario, s);
        DetectionRun run = RunDetection(tree, config.detector, built.merged);
        ++tally.benign_runs;
        for (std::size_t th = 1; th <= nth; ++th) {
          if (run.max_score >= static_cast<int>(th)) ++tally.far_hits[th];
        }
      }
    }
  }

  std::vector<CategoryAccuracy> out;
  for (auto& [category, tally] : tallies) {
    CategoryAccuracy ca;
    ca.category = category;
    for (std::size_t th = 1; th <= nth; ++th) {
      AccuracyPoint p;
      p.threshold = static_cast<int>(th);
      p.benign_runs = tally.benign_runs;
      p.ransom_runs = tally.ransom_runs;
      p.far = tally.benign_runs
                  ? static_cast<double>(tally.far_hits[th]) /
                        static_cast<double>(tally.benign_runs)
                  : 0.0;
      p.frr = tally.ransom_runs
                  ? static_cast<double>(tally.frr_misses[th]) /
                        static_cast<double>(tally.ransom_runs)
                  : 0.0;
      ca.points.push_back(p);
    }
    out.push_back(std::move(ca));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Detection latency

std::vector<LatencyResult> MeasureDetectionLatency(
    const core::DecisionTree& tree, const std::vector<ScenarioSpec>& specs,
    const AccuracyConfig& config) {
  std::vector<LatencyResult> results;
  std::uint64_t seed = config.base_seed;
  for (const ScenarioSpec& spec : specs) {
    if (spec.ransomware.empty()) continue;
    LatencyResult r;
    r.spec = spec;
    double total = 0.0;
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      BuiltScenario built = BuildScenario(spec, config.scenario, seed++);
      DetectionRun run = RunDetection(tree, config.detector, built.merged,
                                      built.ransom.active_begin);
      ++r.runs;
      if (run.alarm_time) {
        ++r.detected;
        double latency =
            ToSeconds(*run.alarm_time - built.ransom.active_begin);
        total += latency;
        r.max_latency_s = std::max(r.max_latency_s, latency);
      }
    }
    r.mean_latency_s = r.detected ? total / static_cast<double>(r.detected)
                                  : 0.0;
    results.push_back(std::move(r));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Fig. 9 GC experiment

namespace {

void ReplayThroughFtl(ftl::PageFtl& ftl, const BuiltScenario& scenario,
                      SimTime time_offset) {
  Lba exported = ftl.ExportedLbas();
  std::uint64_t stamp = 1'000'000;
  for (const wl::TaggedRequest& t : scenario.merged) {
    IoRequest r = t.request;
    r.time += time_offset;
    Lba lba = r.lba % exported;
    std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(r.length, exported - lba));
    for (std::uint32_t i = 0; i < len; ++i) {
      switch (r.mode) {
        case IoMode::kRead:
          ftl.ReadPage(lba + i, r.time);
          break;
        case IoMode::kWrite: {
          nand::PageData d;
          d.stamp = stamp++;
          ftl.WritePage(lba + i, std::move(d), r.time);
          break;
        }
        case IoMode::kTrim:
          ftl.TrimPage(lba + i, r.time);
          break;
        case IoMode::kRangeLock:
        case IoMode::kRangeUnlock:
          break;  // frontend-only admin commands; nothing reaches the FTL
      }
    }
  }
}

}  // namespace

GcResult RunGcExperiment(const BuiltScenario& scenario,
                         const GcExperimentConfig& config) {
  GcResult result;
  result.label = scenario.HasRansomware() ? scenario.ransom.name
                                          : scenario.app.name;

  for (bool delayed : {false, true}) {
    ftl::FtlConfig fc;
    fc.geometry = config.geometry;
    fc.latency = nand::LatencyModel::Zero();  // counting copies, not time
    fc.delayed_deletion = delayed;
    fc.retention_window = config.retention_window;
    ftl::PageFtl ftl(fc);

    // Pre-fill to the target utilization with fresh sequential writes (no
    // backups: nothing is overwritten yet).
    Lba fill = static_cast<Lba>(
        static_cast<double>(ftl.ExportedLbas()) * config.fill_fraction);
    for (Lba lba = 0; lba < fill; ++lba) {
      nand::PageData d;
      d.stamp = lba;
      ftl::FtlResult r = ftl.WritePage(lba, std::move(d), 0);
      if (!r.ok()) break;  // device full / degraded: run with what landed
    }
    ftl.ResetStats();
    ftl.Nand().ResetCounters();

    ReplayThroughFtl(ftl, scenario, Seconds(1));

    if (delayed) {
      result.copies_insider = ftl.Stats().gc_page_copies;
      result.erases_insider = ftl.Stats().gc_erases;
    } else {
      result.copies_conventional = ftl.Stats().gc_page_copies;
      result.erases_conventional = ftl.Stats().gc_erases;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Table II consistency trial

namespace {

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

std::vector<std::byte> Encrypt(const std::vector<std::byte>& plain,
                               std::uint8_t key) {
  std::vector<std::byte> out(plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    out[i] = plain[i] ^ std::byte{key};
  }
  return out;
}

}  // namespace

ConsistencyTrialResult RunConsistencyTrial(
    const core::DecisionTree& tree, const ConsistencyTrialConfig& config) {
  ConsistencyTrialResult result;
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);

  SsdConfig sc;
  sc.ftl.geometry = config.geometry;
  sc.detector = config.detector;
  Ssd ssd(sc, tree);

  // --- Setup: format, populate, settle. --------------------------------
  if (fs::FileSystem::Mkfs(ssd, 512) != fs::FsStatus::kOk) return result;
  auto mounted = fs::FileSystem::Mount(ssd);
  if (!mounted) return result;
  fs::FileSystem fsys = std::move(*mounted);

  struct FileRecord {
    std::string path;
    std::vector<std::byte> plain;
    std::vector<std::byte> cipher;
  };
  std::vector<FileRecord> files;
  files.reserve(config.file_count);
  const std::uint8_t key = 0xA5;
  for (std::size_t i = 0; i < config.file_count; ++i) {
    FileRecord f;
    f.path = "/doc" + std::to_string(i);
    std::uint64_t size = config.file_min_bytes +
                         rng.Below(config.file_max_bytes -
                                   config.file_min_bytes + 1);
    f.plain = RandomBytes(rng, size);
    f.cipher = Encrypt(f.plain, key);
    if (fsys.CreateFile(f.path) != fs::FsStatus::kOk) return result;
    if (fsys.WriteFile(f.path, 0, f.plain) != fs::FsStatus::kOk) {
      return result;
    }
    files.push_back(std::move(f));
  }
  result.files_total = files.size();

  if (fsys.Sync() != fs::FsStatus::kOk) return result;
  ssd.IdleUntil(ssd.Clock().Now() + config.settle_time);

  // --- Concurrent benign activity: a download in progress with lazy
  // metadata write-back (the on-disk bitmap/superblock/inode epochs
  // interleave, as under a real kernel). The rollback will cut into this
  // phase, producing the Table II corruption classes.
  fsys.SetLazyMetadata(true);
  if (config.writer_phase > 0) {
    const char* dl = "/download.bin";
    if (fsys.CreateFile(dl) != fs::FsStatus::kOk) return result;
    SimTime writer_end = ssd.Clock().Now() + config.writer_phase;
    std::uint64_t off = 0;
    std::vector<std::byte> chunk_data = RandomBytes(rng, 256 * 1024);
    while (ssd.Clock().Now() < writer_end) {
      if (fsys.WriteFile(dl, off, chunk_data) != fs::FsStatus::kOk) break;
      off += chunk_data.size();
      // Download pacing (network-bound).
      ssd.Clock().Advance(TruncateMicros(
          static_cast<double>(chunk_data.size()) / config.writer_rate_mbps));
    }
  }

  // --- Attack: read, encrypt, overwrite in place. ----------------------
  SimTime attack_start = ssd.Clock().Now();
  std::vector<std::size_t> order(files.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  // The attack proceeds in 256-KB chunks: read plaintext, spend the
  // encryption CPU time (which is what paces real ransomware), overwrite
  // with ciphertext. The device latches read-only the moment the alarm
  // fires, failing the next write mid-file.
  const std::uint64_t kChunk = 256 * 1024;
  std::vector<std::byte> scratch(kChunk);
  bool device_refused = false;
  for (std::size_t idx : order) {
    if (ssd.AlarmActive() || device_refused) break;
    const FileRecord& f = files[idx];
    for (std::uint64_t off = 0; off < f.plain.size(); off += kChunk) {
      if (ssd.AlarmActive()) break;
      std::uint64_t len = std::min<std::uint64_t>(kChunk,
                                                  f.plain.size() - off);
      std::uint64_t n = 0;
      if (fsys.ReadFile(f.path, off,
                        std::span<std::byte>(scratch).first(len),
                        &n) != fs::FsStatus::kOk) {
        device_refused = true;
        break;
      }
      // Encryption CPU time.
      ssd.Clock().Advance(TruncateMicros(
          static_cast<double>(len) / config.attack_rate_mbps));
      if (fsys.WriteFile(
              f.path, off,
              std::span<const std::byte>(f.cipher).subspan(off, len)) !=
          fs::FsStatus::kOk) {
        device_refused = true;
        break;
      }
    }
  }

  result.detected = ssd.AlarmActive();
  if (!result.detected) return result;
  result.detection_latency = *ssd.FirstAlarmTime() - attack_start;

  // --- Recovery: rollback + reboot + fsck. -----------------------------
  ftl::RollbackReport rb = ssd.RollBackNow();
  result.rolled_back = true;
  result.rollback_duration = rb.duration;
  ssd.Reboot();

  result.fsck_before = fs::Fsck(ssd, /*repair=*/false);
  fs::Fsck(ssd, /*repair=*/true);
  result.clean_after_repair = fs::Fsck(ssd, /*repair=*/false).Clean();

  // --- Verify: every file back to its original content. ----------------
  auto remounted = fs::FileSystem::Mount(ssd);
  if (!remounted) return result;
  fs::FileSystem verify = std::move(*remounted);
  for (const FileRecord& f : files) {
    std::vector<std::byte> got(f.plain.size());
    std::uint64_t n = 0;
    bool readable = verify.Exists(f.path) &&
                    verify.ReadFile(f.path, 0, got, &n) == fs::FsStatus::kOk &&
                    n == f.plain.size();
    if (readable && got == f.plain) {
      ++result.files_intact;
    } else if (readable && got == f.cipher) {
      ++result.files_encrypted;
    } else {
      ++result.files_corrupt;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Multi-tenant interleaving through the queue frontend

InterleavedResult RunInterleavedDetection(const core::DecisionTree& tree,
                                          const InterleavedConfig& config) {
  SsdConfig scfg;
  scfg.ftl = config.ftl;
  scfg.detector = config.detector;
  scfg.auto_read_only = config.auto_read_only;
  Ssd ssd(scfg, tree);

  Rng rng(config.seed ^ 0x517E0D15C0DEull);
  const Lba exported = ssd.Ftl().ExportedLbas();
  const std::size_t n = config.benign_tenants;
  const bool attack = !config.ransomware.empty();

  // LBA carve-up: victim file set first, one region per benign tenant, and
  // a final scratch region for out-of-place ransomware copies.
  const Lba region = exported / static_cast<Lba>(n + 2);

  std::vector<wl::TenantSpec> tenants;
  tenants.reserve(n + 1);
  double worst_slowdown = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    wl::AppKind kind = wl::kTenantApps[i % wl::kTenantApps.size()];
    wl::AppParams params;
    params.start_time = 0;
    params.duration = config.duration;
    params.region_start = region * static_cast<Lba>(i + 1);
    params.region_blocks = region;
    params.intensity = config.app_intensity;
    Rng app_rng = rng.Fork();
    wl::AppTrace trace = wl::GenerateApp(kind, params, app_rng);

    wl::TenantSpec spec;
    spec.name = trace.name;
    spec.requests = std::move(trace.requests);
    spec.stamp_base = (i + 1) * 100'000'000ull;
    tenants.push_back(std::move(spec));
    worst_slowdown = std::max(worst_slowdown, wl::RansomwareSlowdownUnder(kind));
  }

  SimTime attack_begin = 0;
  if (attack) {
    wl::FileSet::Params fsp;
    fsp.file_count = config.fileset_files;
    fsp.region_start = 0;
    fsp.region_blocks = region;
    Rng fs_rng = rng.Fork();
    wl::FileSet files = wl::FileSet::Generate(fsp, fs_rng);

    wl::RansomwareProfile profile =
        wl::RansomwareProfileByName(config.ransomware);
    // The ransomware competes with *all* tenants for the host CPU; the
    // hungriest background sets the pace, as in the paper's mixed runs.
    profile.slowdown *= worst_slowdown;

    wl::RansomwareRunParams rp;
    rp.start_time = config.ransom_start;
    rp.scratch_start = region * static_cast<Lba>(n + 1);
    rp.max_duration = config.duration > config.ransom_start
                          ? config.duration - config.ransom_start
                          : 0;
    Rng r_rng = rng.Fork();
    wl::RansomwareTrace trace =
        wl::GenerateRansomware(profile, files, rp, r_rng);
    attack_begin = trace.active_begin;

    wl::TenantSpec spec;
    spec.name = trace.name;
    spec.requests = std::move(trace.requests);
    spec.stamp_base = 0xEEEE000000000000ull;
    spec.is_ransomware = true;
    tenants.push_back(std::move(spec));
  }

  SsdTarget target(ssd);
  io::EngineConfig ecfg;
  ecfg.queue_count = tenants.size();
  ecfg.queue.sq_depth = config.queue_depth;
  ecfg.arbiter = config.arbiter;
  io::IoEngine engine(target, ecfg);
  ssd.AttachObs(config.tracer, config.metrics);
  engine.AttachObs(config.tracer, config.metrics);

  wl::MultiTenantDriver driver(std::move(tenants));
  InterleavedResult result;
  result.report = driver.Run(engine);

  // Let the trailing slice close so the last votes reach the score. The
  // device clock tracks submissions (pipelined dispatch), so settle from
  // whichever is later: the clock or the last command's media completion.
  ssd.IdleUntil(std::max(result.report.end_time, ssd.Clock().Now()) +
                config.detector.slice_length);

  const auto& history = ssd.Detector().History();
  result.slices.assign(history.begin(), history.end());
  for (const core::SliceRecord& rec : result.slices) {
    result.max_score = std::max(result.max_score, rec.score);
  }
  result.alarm_time = ssd.FirstAlarmTime();
  result.alarm = result.alarm_time.has_value();
  if (result.alarm && attack) {
    result.detection_latency = *result.alarm_time - attack_begin;
  }
  if (config.inspect) config.inspect(ssd);
  return result;
}

// ---------------------------------------------------------------------------
// Selective range recovery

RangeRecoveryResult RunRangeRecovery(const core::DecisionTree& tree,
                                     const RangeRecoveryConfig& config) {
  auto table = std::make_shared<version::RangePolicyTable>();
  const Lba begin = config.protected_begin;
  const Lba end = begin + config.protected_blocks;
  bool added = table->Add(
      {begin, end, config.keep_versions, config.keep_window});
  assert(added);
  (void)added;

  SsdConfig scfg;
  scfg.ftl.geometry = config.geometry;
  scfg.ftl.range_policies = table;
  scfg.detector = config.detector;
  Ssd ssd(scfg, tree);

  RangeRecoveryResult result;
  result.protected_lbas_total = config.protected_blocks;

  // --- Setup: two generations of known content on the protected range. ---
  // The first generation is displaced by the second and — once it ages out
  // of the ring — archived into the version store, so the recovery below
  // exercises both version substrates. The stamp encodes the generation and
  // the LBA, making verification self-describing.
  auto gen_stamp = [](std::uint64_t generation, Lba lba) {
    return (0xD0C0ull << 48) | (generation << 40) | lba;
  };
  SimTime t = Seconds(1);
  for (std::uint64_t generation = 1; generation <= 2; ++generation) {
    for (Lba lba = begin; lba < end; ++lba) {
      nand::PageData data;
      data.stamp = gen_stamp(generation, lba);
      ssd.WriteBlockAt(lba, std::move(data), t);
      t = std::max(t + Microseconds(100), ssd.Clock().Now());
    }
  }
  // Everything at or before this instant is what the rollback must bring
  // back: the second generation.
  result.restore_point = ssd.Clock().Now();

  // Idle to the attack: the firmware tick ages generation 1 out of the ring
  // and into the store (its records now outlive the paper window only
  // because the range policy says so).
  ssd.IdleUntil(config.attack_start);

  // --- Attack: ransomware encrypts the protected range. -----------------
  Rng rng(config.seed ^ 0x5E1EC7133Eull);
  wl::FileSet::Params fsp;
  fsp.file_count = config.fileset_files;
  fsp.region_start = begin;
  fsp.region_blocks = config.protected_blocks;
  Rng fs_rng = rng.Fork();
  wl::FileSet files = wl::FileSet::Generate(fsp, fs_rng);

  wl::RansomwareProfile profile =
      wl::RansomwareProfileByName(config.ransomware);
  wl::RansomwareRunParams rp;
  rp.start_time = config.attack_start;
  rp.scratch_start = end;  // out-of-place copies land outside the range
  rp.max_duration = config.attack_max_duration;
  Rng r_rng = rng.Fork();
  wl::RansomwareTrace trace = wl::GenerateRansomware(profile, files, rp, r_rng);

  std::uint64_t attack_stamp = 0xEEEE000000000000ull;
  for (const IoRequest& r : trace.requests) {
    ftl::FtlStatus attack_status = ssd.Submit(r, attack_stamp);
    attack_stamp += r.length;
    if (attack_status == ftl::FtlStatus::kReadOnly || ssd.AlarmActive()) {
      break;  // read-only latch: the attack is stopped
    }
  }
  result.alarm_time = ssd.FirstAlarmTime();
  result.alarm = result.alarm_time.has_value();
  result.store_versions = ssd.Ftl().Store().VersionCount();

  // --- Recover: only the protected range, only if the alarm fired. -------
  if (result.alarm) {
    result.report = ssd.RollBackRange(begin, end, result.restore_point);
  }

  // --- Verify against the shadow: generation 2 everywhere. ---------------
  for (Lba lba = begin; lba < end; ++lba) {
    ftl::FtlResult r = ssd.ReadBlockAt(lba, ssd.Clock().Now());
    if (r.ok() && r.data.stamp == gen_stamp(2, lba)) {
      ++result.protected_lbas_clean;
    }
  }
  return result;
}

}  // namespace insider::host
