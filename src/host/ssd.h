// The assembled SSD-Insider device: NAND + FTL + in-firmware detector,
// wired the way the paper's prototype is (Fig. 6): every host request's
// header goes to the detection algorithm, the payload goes through the FTL,
// and a raised alarm triggers the read-only latch + mapping-table rollback.
//
// Ssd also implements fs::BlockDevice so InsiderFS can run directly on it
// for the Table II consistency experiments.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "common/io.h"
#include "common/time.h"
#include "core/detector.h"
#include "core/detector_pool.h"
#include "fs/block_device.h"
#include "ftl/page_ftl.h"
#include "host/firmware_scheduler.h"

namespace insider::host {

struct SsdConfig {
  ftl::FtlConfig ftl;
  core::DetectorConfig detector;
  /// Fleet serving: per-namespace detector instances under a DRAM budget.
  /// The default (per_namespace off, no budget) is a single shared instance
  /// — detection is bit-identical to the pre-pool device.
  core::DetectorPoolConfig detector_pool;
  /// Feed requests to the detector (off = conventional SSD baseline).
  bool detector_enabled = true;
  /// Latch the device read-only the moment the alarm fires, without waiting
  /// for the host to confirm (the paper prompts the user; experiments that
  /// model the prompt can disable this and call RollBackNow themselves).
  bool auto_read_only = true;
  /// Virtual host-side gap inserted between successive blocks of one
  /// request submission (models host submission pacing in FS experiments).
  SimTime host_block_gap = Microseconds(20);

  // Firmware scheduler budgets --------------------------------------------

  /// Blocks one firmware GC task run may reclaim before yielding back to
  /// host traffic — the budget of both the watermark background-GC task and
  /// the idle-time sweep (formerly a hardcoded IdleCollect limit).
  std::size_t gc_task_block_budget = 4;
  /// Idle-time GC only takes victims with at most this many live pages;
  /// expensive relocation stays with whoever actually needs the space.
  std::uint32_t idle_gc_max_movable = 8;
  /// Re-run delay of the background-GC task while reclamation is still
  /// under way (models one firmware quantum).
  SimTime gc_task_interval = Microseconds(200);
  /// Period of the housekeeping tick that ages recovery-queue backups out
  /// of the retention window during command gaps.
  SimTime firmware_tick = Milliseconds(500);
};

class Ssd final : public fs::BlockDevice {
 public:
  Ssd(const SsdConfig& config, core::DecisionTree tree);

  // Raw block interface (used by experiments and workload replay) --------

  /// Submit one request; per-block payload stamps are `stamp_base + i`.
  ///
  /// Time-ordering contract (the io::IoEngine depends on this): the device
  /// clock is monotone, and a request whose `time` is *earlier* than the
  /// clock — a host queue draining after the device moved on — is clamped
  /// to the clock. The request executes at `max(request.time, Clock())`,
  /// and the detector observes the clamped time, so its slice stream stays
  /// non-decreasing no matter how hosts interleave. Requests never execute
  /// in the past.
  ///
  /// Every entry point rejects a command whose blocks [lba, lba + length)
  /// do not all lie inside the exported range with kOutOfRange, before the
  /// detector or the FTL sees it: no page of it runs.
  ftl::FtlStatus Submit(const IoRequest& request, std::uint64_t stamp_base);

  /// The command's status and when its last block finished in the NAND
  /// array.
  using SubmitOutcome = ftl::CommandResult;

  /// Pipelined submission for the multi-queue frontend (io::IoEngine via
  /// SsdTarget). Same header observation and time-ordering contract as
  /// Submit(), but every block issues at the clamped request time and the
  /// device clock advances only to that time, NOT to the completion — the
  /// NAND chips' busy-until occupancy serializes what must serialize, so
  /// concurrent commands from many queues overlap across channels/ways the
  /// way they do in a real controller. The returned complete_time is the
  /// last block's FTL completion.
  SubmitOutcome SubmitAsync(const IoRequest& request, std::uint64_t stamp_base);

  /// Device-internal re-drive of a previously observed request (the I/O
  /// engine's bounded read retry). Identical to SubmitAsync except the
  /// detector does NOT observe the header again — a retried read is the same
  /// host request, and double-counting it would skew the detection features.
  SubmitOutcome ResubmitAsync(const IoRequest& request,
                              std::uint64_t stamp_base);

  /// Convenience single-block ops at the current clock.
  ftl::FtlResult WriteBlockAt(Lba lba, const nand::PageView& data,
                              SimTime now);
  ftl::FtlResult ReadBlockAt(Lba lba, SimTime now);
  ftl::FtlResult TrimBlockAt(Lba lba, SimTime now);

  // fs::BlockDevice ------------------------------------------------------

  std::uint64_t BlockCount() const override;
  bool ReadBlock(std::uint64_t lba, std::span<std::byte> out) override;
  bool WriteBlock(std::uint64_t lba,
                  std::span<const std::byte> data) override;
  bool TrimBlock(std::uint64_t lba) override;

  // Alarm & recovery ------------------------------------------------------

  bool AlarmActive() const;
  std::optional<SimTime> FirstAlarmTime() const;

  /// Invoked (at most once per alarm episode) the moment the score crosses
  /// the threshold — the paper's "ransomware attack alarm" vendor command
  /// through which the drive asks the host to confirm recovery.
  void SetAlarmCallback(std::function<void(SimTime)> callback) {
    alarm_callback_ = std::move(callback);
  }
  /// The paper's recovery: read-only latch + mapping rollback to
  /// `detect_time - window`. Uses the detector's first alarm time by
  /// default.
  ftl::RollbackReport RollBackNow();
  /// Selective recovery: roll one LBA range back to the retained version
  /// closest at-or-before `restore_point`, leaving the rest of the device
  /// untouched (requires a range policy covering the range for depth beyond
  /// the paper window). The device clock advances by the modeled firmware
  /// cost of the walk.
  ftl::RangeRollbackReport RollBackRange(Lba begin, Lba end,
                                         SimTime restore_point);
  /// "Reboot": clear the read-only latch and reset detector state, as the
  /// user does after removing the ransomware.
  void Reboot();

  /// Sudden power loss at `off_time`, power restored at `on_time`: the FTL
  /// rebuilds its mapping table and recovery queue from the OOB flash scan
  /// (PageFtl::RebuildFromNand), and the detector restarts cold — its DRAM
  /// state is gone. Rollback remains possible afterwards because the queue
  /// is reconstructed from flash. Returns the rebuild report.
  ftl::PageFtl::RebuildReport PowerCycle(SimTime off_time, SimTime on_time);

  /// The user answered "no" to the recovery prompt (paper §III-C: the drive
  /// asks before recovering). Clears the read-only latch and the detector's
  /// score without touching any data; retained backups age out naturally.
  void DismissAlarm();

  /// Let idle virtual time pass: advances the clock and drains the firmware
  /// scheduler up to `t` (detector slice ticks, retention aging, background
  /// and idle GC).
  void IdleUntil(SimTime t);

  // Firmware scheduler ----------------------------------------------------

  /// Run every scheduled firmware task due at or before `until`. The
  /// multi-queue engine calls this (via SsdTarget::RunBackgroundUntil) with
  /// the next command's time, handing housekeeping the inter-command gap.
  void DrainFirmware(SimTime until);

  FirmwareScheduler& Firmware() { return scheduler_; }
  const FirmwareScheduler& Firmware() const { return scheduler_; }

  // Introspection ----------------------------------------------------------

  /// Attach the observability sinks (either may be null) to every layer the
  /// device owns: the FTL (which forwards to the NAND array), the firmware
  /// scheduler, and the device itself (`ssd.alarm` instants when the
  /// detector's score crosses the threshold). The multi-queue engine attaches
  /// itself separately — it sits above the device.
  void AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    ftl_.AttachObs(tracer, metrics);
    scheduler_.AttachObs(tracer);
    PublishPoolMetrics();
  }

  SimClock& Clock() { return clock_; }
  const SimClock& Clock() const { return clock_; }
  ftl::PageFtl& Ftl() { return ftl_; }
  const ftl::PageFtl& Ftl() const { return ftl_; }
  /// The default namespace's detector — the seed single-tenant view. With
  /// per_namespace off this *is* the one instance every request feeds.
  core::Detector& Detector() { return detectors_.ForNamespace(0); }
  const core::Detector& Detector() const { return *detectors_.Peek(0); }
  /// The whole fleet of per-namespace instances.
  core::DetectorPool& Detectors() { return detectors_; }
  const core::DetectorPool& Detectors() const { return detectors_; }
  const SsdConfig& Config() const { return config_; }

 private:
  void Observe(const IoRequest& request);
  /// SubmitAsync / ResubmitAsync: a read or write command goes to the FTL
  /// whole (PageFtl::ReadRange / WriteRange); trims go page by page.
  SubmitOutcome ExecuteAsync(const IoRequest& request,
                             std::uint64_t stamp_base, bool observe);
  /// Issue block `i` of `request` to the FTL at `now` (payload stamp
  /// `stamp_base + i`): Submit's page-at-a-time step, which advances time
  /// between blocks.
  ftl::FtlResult ExecutePage(const IoRequest& request, std::uint32_t i,
                             std::uint64_t stamp_base, SimTime now);
  void InstallFirmwareTasks();
  /// Close detector slices up to `now` on every instance, propagating alarm
  /// transitions exactly like Observe() does for request-driven closes.
  void AdvanceDetector(SimTime now);
  /// One instance's score just crossed the threshold: emit the alarm
  /// instant on the namespace's lane, latch read-only, fire the callback.
  void OnAlarmRaised(core::NamespaceId ns, const core::Detector& detector,
                     SimTime now);
  /// Mirror the pool's counters into detector.pool.* gauges when anything
  /// changed (cheap StatsEpoch compare on the hot path).
  void PublishPoolMetrics();
  /// Arm the one-shot background-GC task when the free pool has dipped to
  /// the low watermark (no-op while already armed).
  void MaybeArmBackgroundGc();

  SsdConfig config_;
  ftl::PageFtl ftl_;
  core::DetectorPool detectors_;
  SimClock clock_;
  std::function<void(SimTime)> alarm_callback_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  FirmwareScheduler scheduler_;
  FirmwareScheduler::TaskId detector_tick_ = FirmwareScheduler::kInvalidTask;
  bool bg_gc_armed_ = false;
  std::uint64_t pool_epoch_published_ = static_cast<std::uint64_t>(-1);
};

}  // namespace insider::host
