// The benchmark's three workloads, each composed from the same public entry
// points host::RunFleet and host::RunConsistencyTrial use, so that a traced
// run can put timing decorators (seams.h) on every seam between layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "ftl/ftl_types.h"
#include "host/experiment.h"
#include "io/io_engine.h"

namespace perfbench {

using insider::SimTime;

struct RunSpec {
  std::uint64_t seed = 1;
  /// Sizes the workload (virtual duration or trial count) so that all its
  /// timed sections together take about this long on a 4-core x86 host. The
  /// work done is a pure function of (seed, seconds, reps), never of how fast
  /// the host is.
  int seconds = 20;
  /// Timed sections: identical repetitions of an engine workload, each of
  /// which must reproduce the first exactly, or paper_recover trials.
  /// sim_ops_per_s is the median over them.
  std::size_t reps = 1;
  /// Install the seams.h decorators and an obs::MetricsRegistry.
  bool traced = false;
  /// Times to build inputs and device before each timed section; setup_s
  /// is the median over all of them.
  std::size_t setup_reps = 1;
};

/// Host-time cost per layer; reported only for a traced run.
struct LayerTrace {
  double wl_run_s = 0.0;
  double dispatch_total_ns = 0.0;
  double dispatch_p999_ns = 0.0;
  std::uint64_t dispatch_calls = 0;
  double redrive_total_ns = 0.0;
  double firmware_total_ns = 0.0;
  std::uint64_t firmware_calls = 0;
  double victim_total_ns = 0.0;
  std::uint64_t victim_calls = 0;
  double alloc_total_ns = 0.0;
  std::uint64_t alloc_calls = 0;
  double block_io_total_ns = 0.0;
  std::uint64_t block_io_calls = 0;
  double queue_wait_p999_us = 0.0;
  double device_p999_us = 0.0;
  // Detector replay of the captured header stream.
  bool replayed = false;
  bool replay_exact = false;
  double on_request_total_ns = 0.0;
  std::uint64_t headers = 0;
  double slice_close_total_ns = 0.0;
  std::uint64_t slices_closed = 0;
  std::uint64_t instances = 0;
  // Recovery and filesystem (summed over trials).
  double rollback_host_s = 0.0;
  double mkfs_s = 0.0;
  double fsck_s = 0.0;
  double verify_s = 0.0;
};

/// Per-tenant result of a fleet run, in the terms host::FleetTenantResult
/// uses, so the composition can be compared with host::RunFleet.
struct TenantOutcome {
  bool detected = false;
  int max_score = 0;
  SimTime alarm_time = -1;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t stalls = 0;
};

/// Everything one execution of a workload produced.
struct Outcome {
  std::vector<double> setup_s;  ///< one entry per device set up
  // Host time of the timed sections.
  double run_s = 0.0;  ///< all of them together
  std::vector<double> ops_per_s;  ///< device requests per wall-second, each
  std::uint64_t device_ops = 0;  ///< requests the device served
  // Virtual time.
  double virtual_s = 0.0;
  double tail_level = 0.999;
  std::vector<SimTime> read_us;
  std::vector<SimTime> write_us;
  std::uint64_t ambiguous_modes = 0;  ///< completions of unknown direction
  std::vector<insider::ftl::FtlStats> ftl;  ///< one per device
  std::uint64_t completion_digest = 0;
  insider::io::EngineStats engine;
  std::uint64_t stalls = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Detection and recovery outcomes.
  std::size_t victims = 0;
  std::size_t victims_detected = 0;
  std::size_t benign = 0;
  std::size_t false_positives = 0;
  std::vector<double> detect_latency_s;
  std::size_t files_total = 0;
  std::size_t files_intact = 0;
  std::vector<double> rollback_ms;  ///< modelled (virtual) rollback time
  std::uint64_t rollback_entries = 0;
  // Resident state at the end of the run (largest device).
  double ftl_resident_mib = 0.0;
  double nand_resident_mib = 0.0;
  std::uint64_t nand_materialized_blocks = 0;
  // Composition-vs-harness comparison inputs.
  std::vector<TenantOutcome> tenants;
  SimTime end_time = 0;
  std::vector<insider::host::ConsistencyTrialResult> trials;
  /// Failed output checks; empty when every check passed.
  std::vector<std::string> errors;

  LayerTrace trace;
};

Outcome RunFleet64(const RunSpec& spec);
Outcome RunSeedGc(const RunSpec& spec);
Outcome RunPaperRecover(const RunSpec& spec);

/// Reruns the workload through the library harness it was composed from
/// (host::RunFleet / host::RunConsistencyTrial) and reports every field
/// that differs. Costs one more run of the workload.
std::vector<std::string> CheckFleetAgainstHarness(const RunSpec& spec,
                                                  const Outcome& outcome);
std::vector<std::string> CheckTrialAgainstHarness(const RunSpec& spec,
                                                  const Outcome& outcome);

}  // namespace perfbench
