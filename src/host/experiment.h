// Experiment runners behind the paper's evaluation section: detection
// accuracy sweeps (Fig. 7), detection latency (§V-B), GC cost comparison
// (Fig. 9), and the full attack->detect->rollback->fsck consistency trial
// (Table II).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_tree.h"
#include "core/detector.h"
#include "fs/fsck.h"
#include "ftl/page_ftl.h"
#include "host/scenario.h"
#include "host/ssd.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/multi_tenant.h"

namespace insider::host {

// --------------------------------------------------------------------------
// Detection runs

struct DetectionRun {
  std::vector<core::SliceRecord> slices;
  int max_score = 0;
  /// Max score over slices ending after `scored_from` (used to score
  /// ransomware runs only on the attack's active period).
  int max_score_scored = 0;
  std::optional<SimTime> alarm_time;  ///< score first reached the threshold
};

/// Stream a merged scenario through a detector and collect per-slice
/// records. `scored_from`: slices ending before it don't count toward
/// max_score_scored.
DetectionRun RunDetection(const core::DecisionTree& tree,
                          const core::DetectorConfig& config,
                          const std::vector<wl::TaggedRequest>& merged,
                          SimTime scored_from = 0);

// --------------------------------------------------------------------------
// Fig. 7: FAR / FRR vs score threshold, per background category

struct AccuracyPoint {
  int threshold = 0;
  double far = 0.0;  ///< benign runs flagged / benign runs
  double frr = 0.0;  ///< ransomware runs missed / ransomware runs
  std::size_t benign_runs = 0;
  std::size_t ransom_runs = 0;
};

struct CategoryAccuracy {
  wl::AppCategory category{};
  std::vector<AccuracyPoint> points;  ///< thresholds 1..window_slices
};

struct AccuracyConfig {
  ScenarioConfig scenario;
  core::DetectorConfig detector;
  std::size_t repetitions = 20;  ///< paper: each combination 20 times
  std::uint64_t base_seed = 7000;
};

/// For every testing scenario: `repetitions` runs with the ransomware (FRR)
/// and `repetitions` benign runs of the same background (FAR), aggregated by
/// the background's category.
std::vector<CategoryAccuracy> EvaluateAccuracy(
    const core::DecisionTree& tree, const std::vector<ScenarioSpec>& specs,
    const AccuracyConfig& config);

// --------------------------------------------------------------------------
// Detection latency (paper: "within 10 s")

struct LatencyResult {
  ScenarioSpec spec;
  std::size_t runs = 0;
  std::size_t detected = 0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
};

std::vector<LatencyResult> MeasureDetectionLatency(
    const core::DecisionTree& tree, const std::vector<ScenarioSpec>& specs,
    const AccuracyConfig& config);

// --------------------------------------------------------------------------
// Fig. 9: GC page copies, conventional FTL vs SSD-Insider FTL

struct GcExperimentConfig {
  nand::Geometry geometry;      ///< defaults to a 1-GB simulated device
  double fill_fraction = 0.9;   ///< paper worst case; 0.7 = average case
  SimTime retention_window = Seconds(10);
  std::uint64_t seed = 99;

  GcExperimentConfig() {
    geometry.channels = 8;
    geometry.ways = 8;
    geometry.blocks_per_chip = 64;
    geometry.pages_per_block = 64;
  }
};

struct GcResult {
  std::string label;
  std::uint64_t copies_conventional = 0;
  std::uint64_t copies_insider = 0;
  std::uint64_t erases_conventional = 0;
  std::uint64_t erases_insider = 0;
  double OverheadPercent() const {
    if (copies_conventional == 0) {
      return copies_insider == 0 ? 0.0 : 100.0;
    }
    return 100.0 *
           (static_cast<double>(copies_insider) -
            static_cast<double>(copies_conventional)) /
           static_cast<double>(copies_conventional);
  }
};

/// Replay one built scenario's stream through two FTLs (delayed deletion
/// off/on) pre-filled to `fill_fraction`, and count GC page copies.
GcResult RunGcExperiment(const BuiltScenario& scenario,
                         const GcExperimentConfig& config);

// --------------------------------------------------------------------------
// Table II: attack -> detect -> rollback -> fsck -> verify

struct ConsistencyTrialConfig {
  nand::Geometry geometry;       ///< defaults to a small 256-MB device
  core::DetectorConfig detector;
  /// Victim files are documents/images: small, so their contiguous
  /// overwrite runs stay well under the AVGWIO whitelist the detector uses
  /// to pass wiping and DB checkpoints.
  std::size_t file_count = 200;
  std::uint64_t file_min_bytes = 32 * 1024;
  std::uint64_t file_max_bytes = 128 * 1024;
  /// Idle time between setup and attack so setup writes age out of the
  /// recovery window.
  SimTime settle_time = Seconds(15);
  /// The machine is in use when the attack hits: a benign writer (an
  /// in-progress download) runs with kernel-style lazy metadata write-back
  /// for this long right before the attack. The rollback horizon
  /// (alarm - 10 s) lands inside this phase, which is what produces the
  /// crash-like metadata inconsistencies of Table II.
  SimTime writer_phase = Seconds(10);
  double writer_rate_mbps = 4.0;
  /// Ransomware encryption throughput (virtual time pacing). Real families
  /// sustain single-digit to low-double-digit MB/s; this sets how long the
  /// attack runs before the detector can accumulate votes.
  double attack_rate_mbps = 4.0;
  std::uint64_t seed = 1;

  ConsistencyTrialConfig() {
    geometry.channels = 2;
    geometry.ways = 2;
    geometry.blocks_per_chip = 128;
    geometry.pages_per_block = 64;
  }
};

struct ConsistencyTrialResult {
  bool detected = false;
  bool rolled_back = false;
  SimTime detection_latency = 0;
  SimTime rollback_duration = 0;
  fs::FsckReport fsck_before;  ///< corruption found right after rollback
  bool clean_after_repair = false;
  std::size_t files_total = 0;
  std::size_t files_intact = 0;      ///< content identical to the original
  std::size_t files_encrypted = 0;   ///< still holding attacker ciphertext
  std::size_t files_corrupt = 0;     ///< neither (partial/garbled)
};

ConsistencyTrialResult RunConsistencyTrial(const core::DecisionTree& tree,
                                           const ConsistencyTrialConfig& config);

// --------------------------------------------------------------------------
// Multi-tenant interleaving: detection through the multi-queue I/O frontend
//
// N independent benign tenants plus (optionally) one ransomware stream, each
// on its own queue pair, drive a full Ssd through io::IoEngine. The in-SSD
// detector sees the arbitrated interleaving of all streams — the realistic
// "many users" condition — instead of a pre-merged trace.

struct InterleavedConfig {
  /// Number of benign tenant streams; apps are drawn round-robin from a
  /// fixed rotation of Table-I backgrounds.
  std::size_t benign_tenants = 3;
  /// Ransomware family name (workload/ransomware.h); empty = benign control.
  std::string ransomware = "WannaCry";
  SimTime duration = Seconds(40);
  SimTime ransom_start = Seconds(12);
  std::size_t queue_depth = 32;
  io::ArbiterConfig arbiter;
  core::DetectorConfig detector;
  ftl::FtlConfig ftl;  ///< defaults to a 2-GB simulated device
  /// Latch read-only on alarm (paper behavior); post-alarm writes of every
  /// tenant then complete with errors, which the report counts.
  bool auto_read_only = true;
  double app_intensity = 1.0;
  std::size_t fileset_files = 600;
  std::uint64_t seed = 1;

  /// Optional observability sinks (either may be null). Attached to both the
  /// I/O engine and the device before the run, so the trace covers the whole
  /// path: queue wait -> arbitration -> FTL -> NAND, plus detector alarms.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Invoked on the settled device right before the run returns — the hook
  /// tools use to dump state the result struct doesn't carry (e.g. the
  /// detector introspection JSON, FTL stats).
  std::function<void(Ssd&)> inspect;

  InterleavedConfig() {
    ftl.geometry.channels = 4;
    ftl.geometry.ways = 4;
    ftl.geometry.blocks_per_chip = 128;
    ftl.geometry.pages_per_block = 64;
  }
};

struct InterleavedResult {
  bool alarm = false;
  int max_score = 0;
  std::optional<SimTime> alarm_time;
  /// Alarm time minus the attack's first request (0 when no alarm/attack).
  SimTime detection_latency = 0;
  wl::MultiTenantReport report;
  /// The detector's full per-slice history (feature values, tree path,
  /// score): the introspection record tools/trace_dump renders.
  std::vector<core::SliceRecord> slices;
};

/// Build the tenant streams, run them through a fresh Ssd via the queue
/// frontend, and report detector outcome plus per-tenant I/O accounting.
InterleavedResult RunInterleavedDetection(const core::DecisionTree& tree,
                                          const InterleavedConfig& config);

// --------------------------------------------------------------------------
// Selective range recovery: protect one LBA range with a version policy,
// let ransomware encrypt it, and on alarm roll only that range back to a
// pre-attack restore point (src/version) — the rest of the device is
// untouched. The runner keeps a per-LBA shadow of the expected pre-attack
// stamps, so the result reports exactly how many protected LBAs came back.

struct RangeRecoveryConfig {
  nand::Geometry geometry;  ///< defaults to a small 256-MB device
  core::DetectorConfig detector;
  /// The protected range and its retention policy.
  Lba protected_begin = 0;
  Lba protected_blocks = 4096;
  std::uint32_t keep_versions = 16;
  SimTime keep_window = Seconds(120);
  /// Ransomware family encrypting the protected range (workload/ransomware.h).
  std::string ransomware = "WannaCry";
  SimTime attack_start = Seconds(20);
  SimTime attack_max_duration = Seconds(20);
  std::size_t fileset_files = 600;
  std::uint64_t seed = 1;

  RangeRecoveryConfig() {
    geometry.channels = 2;
    geometry.ways = 2;
    geometry.blocks_per_chip = 128;
    geometry.pages_per_block = 64;
  }
};

struct RangeRecoveryResult {
  bool alarm = false;
  std::optional<SimTime> alarm_time;
  /// The pre-attack time the protected range was rolled back to.
  SimTime restore_point = 0;
  ftl::RangeRollbackReport report;
  std::size_t protected_lbas_total = 0;
  /// Protected LBAs whose post-rollback stamp matches the pre-attack shadow.
  std::size_t protected_lbas_clean = 0;
  /// Version-store occupancy right before the rollback (archived depth).
  std::size_t store_versions = 0;
};

/// Seed the protected range with two generations of known content, age the
/// older generation into the version store, run the attack through the
/// detector, and recover the range with Ssd::RollBackRange on alarm.
RangeRecoveryResult RunRangeRecovery(const core::DecisionTree& tree,
                                     const RangeRecoveryConfig& config);

}  // namespace insider::host
