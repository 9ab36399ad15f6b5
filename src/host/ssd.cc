#include "host/ssd.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace insider::host {

Ssd::Ssd(const SsdConfig& config, core::DecisionTree tree)
    : config_(config), ftl_(config.ftl),
      detectors_(config.detector, config.detector_pool, std::move(tree)) {
  InstallFirmwareTasks();
}

void Ssd::InstallFirmwareTasks() {
  // Detector slice tick: closes slices on time during command gaps instead
  // of waiting for the next request header. Self-healing: requests may have
  // closed slices already (Observe advances the detector too), so each run
  // just catches up and recomputes its next due from detector state.
  if (config_.detector_enabled) {
    detector_tick_ = scheduler_.Schedule(
        "detector_tick", detectors_.NextSliceEnd(), [this](SimTime now) {
          AdvanceDetector(now);
          return detectors_.NextSliceEnd();
        });
  }
  // Retention aging: backups fall out of the recoverability window during
  // gaps too, not only when the next I/O happens to land (every FTL I/O
  // still ages the queue first, so foreground behavior is unchanged).
  if (config_.ftl.delayed_deletion) {
    scheduler_.Schedule("retention_expiry", config_.firmware_tick,
                        [this](SimTime now) {
                          ftl_.ReleaseExpired(now);
                          return now + config_.firmware_tick;
                        });
  }
  // Checkpoint cadence: a crash can only cost replaying the journal since
  // the last commit, so this task bounds the rebuild delta during command
  // gaps (the FTL also commits pre-emptively when the journal region fills).
  if (ftl_.CheckpointEnabled()) {
    scheduler_.Schedule("checkpoint_flush", config_.ftl.checkpoint.interval,
                        [this](SimTime now) {
                          ftl_.TakeCheckpoint(now);
                          return now + config_.ftl.checkpoint.interval;
                        });
  }
}

void Ssd::AdvanceDetector(SimTime now) {
  if (!config_.detector_enabled) return;
  detectors_.ForEachMutable([&](core::NamespaceId ns, core::Detector& d) {
    bool was_active = d.AlarmActive();
    d.AdvanceTo(now);
    if (!was_active && d.AlarmActive()) OnAlarmRaised(ns, d, now);
  });
  PublishPoolMetrics();
}

void Ssd::OnAlarmRaised(core::NamespaceId ns, const core::Detector& detector,
                        SimTime now) {
  // The alarm instant rides the namespace's lane, so a fleet trace shows
  // *which tenant* tripped the detector.
  obs::EmitInstant(tracer_, "ssd.alarm", "ssd", ns, now,
                   static_cast<std::int64_t>(detector.Score()), "score");
  // One tenant's alarm latches the whole device: mapping rollback is a
  // device-wide operation (the paper's recovery), so writes from every
  // namespace must stop until the host decides.
  if (config_.auto_read_only) ftl_.SetReadOnly(true);
  if (alarm_callback_) alarm_callback_(now);
}

void Ssd::PublishPoolMetrics() {
  if (metrics_ == nullptr) return;
  std::uint64_t epoch = detectors_.StatsEpoch();
  if (epoch == pool_epoch_published_) return;
  pool_epoch_published_ = epoch;
  metrics_->GetGauge("detector.pool.instances")
      .Set(static_cast<double>(detectors_.InstanceCount()));
  metrics_->GetGauge("detector.pool.bytes")
      .Set(static_cast<double>(detectors_.EstimatedBytes()));
  metrics_->GetGauge("detector.pool.evictions")
      .Set(static_cast<double>(detectors_.Pressure().evictions));
  metrics_->GetGauge("detector.pool.pressure_events")
      .Set(static_cast<double>(detectors_.Pressure().events.size()));
}

void Ssd::MaybeArmBackgroundGc() {
  if (bg_gc_armed_ || !ftl_.BackgroundGcNeeded()) return;
  bg_gc_armed_ = true;
  scheduler_.Schedule(
      "background_gc", clock_.Now() + config_.gc_task_interval,
      [this](SimTime now) {
        std::size_t reclaimed =
            ftl_.BackgroundCollect(now, config_.gc_task_block_budget);
        if (reclaimed == config_.gc_task_block_budget) {
          // Budget exhausted with the pool still short: keep going next
          // quantum.
          return now + config_.gc_task_interval;
        }
        // Reached the high watermark (or nothing is reclaimable without
        // sacrificing backups — that call belongs to the foreground path).
        bg_gc_armed_ = false;
        return FirmwareScheduler::kNever;
      });
}

void Ssd::DrainFirmware(SimTime until) { scheduler_.RunUntil(until); }

void Ssd::Observe(const IoRequest& request) {
  if (!config_.detector_enabled) return;
  // Route the header by namespace. With per_namespace off every nsid maps
  // to instance 0 and this is exactly the seed single-detector path.
  core::Detector& d = detectors_.ForNamespace(request.nsid);
  bool was_active = d.AlarmActive();
  d.OnRequest(request);
  if (!was_active && d.AlarmActive()) OnAlarmRaised(request.nsid, d,
                                                    request.time);
  PublishPoolMetrics();
}

ftl::FtlStatus Ssd::Submit(const IoRequest& request, std::uint64_t stamp_base) {
  // Clamp stale submissions to the monotone device clock (see ssd.h): the
  // detector and FTL both see the clamped time.
  IoRequest effective = request;
  if (effective.time < clock_.Now()) effective.time = clock_.Now();
  clock_.AdvanceTo(effective.time);
  Observe(effective);
  SimTime now = effective.time;
  for (std::uint32_t i = 0; i < request.length; ++i) {
    ftl::FtlResult r = ExecutePage(request, i, stamp_base, now);
    if (!r.ok()) {
      // kUnmapped reads/trims are normal for never-written LBAs in replayed
      // traces; anything else ends the submission.
      if (r.status != ftl::FtlStatus::kUnmapped) return r.status;
    } else {
      now = std::max(now, r.complete_time);
    }
    clock_.AdvanceTo(now);
  }
  MaybeArmBackgroundGc();
  return ftl::FtlStatus::kOk;
}

Ssd::SubmitOutcome Ssd::SubmitAsync(const IoRequest& request,
                                    std::uint64_t stamp_base) {
  return ExecuteAsync(request, stamp_base, /*observe=*/true);
}

Ssd::SubmitOutcome Ssd::ResubmitAsync(const IoRequest& request,
                                      std::uint64_t stamp_base) {
  return ExecuteAsync(request, stamp_base, /*observe=*/false);
}

Ssd::SubmitOutcome Ssd::ExecuteAsync(const IoRequest& request,
                                     std::uint64_t stamp_base, bool observe) {
  IoRequest effective = request;
  if (effective.time < clock_.Now()) effective.time = clock_.Now();
  clock_.AdvanceTo(effective.time);
  if (observe) Observe(effective);
  SimTime now = effective.time;
  SubmitOutcome outcome;
  outcome.complete_time = now;
  for (std::uint32_t i = 0; i < request.length; ++i) {
    ftl::FtlResult r = ExecutePage(request, i, stamp_base, now);
    if (!r.ok()) {
      if (r.status != ftl::FtlStatus::kUnmapped) {
        outcome.status = r.status;
        return outcome;
      }
    } else if (r.complete_time > outcome.complete_time) {
      outcome.complete_time = r.complete_time;
    }
  }
  MaybeArmBackgroundGc();
  return outcome;
}

ftl::FtlResult Ssd::ExecutePage(const IoRequest& request, std::uint32_t i,
                                std::uint64_t stamp_base, SimTime now) {
  switch (request.mode) {
    case IoMode::kRead:
      return ftl_.ReadPage(request.lba + i, now);
    case IoMode::kWrite: {
      nand::PageData data;
      data.stamp = stamp_base + i;
      return ftl_.WritePage(request.lba + i, std::move(data), now);
    }
    case IoMode::kTrim:
      return ftl_.TrimPage(request.lba + i, now);
    case IoMode::kRangeLock:
    case IoMode::kRangeUnlock:
      // Lock admin commands are enforced at the multi-queue frontend
      // (io::IoEngine); a device submitted to directly has no lock table,
      // so they complete as no-ops.
      return {ftl::FtlStatus::kOk, now, {}};
  }
  return {};
}

ftl::FtlResult Ssd::WriteBlockAt(Lba lba, nand::PageData data, SimTime now) {
  clock_.AdvanceTo(now);
  Observe({now, lba, 1, IoMode::kWrite});
  ftl::FtlResult r = ftl_.WritePage(lba, std::move(data), now);
  if (r.ok()) clock_.AdvanceTo(r.complete_time);
  MaybeArmBackgroundGc();
  return r;
}

ftl::FtlResult Ssd::ReadBlockAt(Lba lba, SimTime now) {
  clock_.AdvanceTo(now);
  Observe({now, lba, 1, IoMode::kRead});
  ftl::FtlResult r = ftl_.ReadPage(lba, now);
  if (r.ok()) clock_.AdvanceTo(r.complete_time);
  return r;
}

ftl::FtlResult Ssd::TrimBlockAt(Lba lba, SimTime now) {
  clock_.AdvanceTo(now);
  Observe({now, lba, 1, IoMode::kTrim});
  return ftl_.TrimPage(lba, now);
}

std::uint64_t Ssd::BlockCount() const { return ftl_.ExportedLbas(); }

bool Ssd::ReadBlock(std::uint64_t lba, std::span<std::byte> out) {
  if (out.size() != fs::kBlockSize) return false;
  clock_.Advance(config_.host_block_gap);
  ftl::FtlResult r = ReadBlockAt(lba, clock_.Now());
  if (r.status == ftl::FtlStatus::kUnmapped) {
    std::memset(out.data(), 0, out.size());  // never-written block reads 0
    return true;
  }
  if (!r.ok()) return false;
  if (r.data.bytes.size() == fs::kBlockSize) {
    std::memcpy(out.data(), r.data.bytes.data(), fs::kBlockSize);
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return true;
}

bool Ssd::WriteBlock(std::uint64_t lba, std::span<const std::byte> data) {
  if (data.size() != fs::kBlockSize) return false;
  clock_.Advance(config_.host_block_gap);
  nand::PageData page;
  page.stamp = 0;
  page.bytes.assign(data.begin(), data.end());
  // Writes complete asynchronously: the host queues them and moves on (the
  // FTL stripes them across chips), so the host clock advances only by its
  // own submission gap — this is what lets a filesystem writer approach the
  // device's parallel bandwidth rather than one chip's program latency.
  SimTime now = clock_.Now();
  Observe({now, lba, 1, IoMode::kWrite});
  ftl::FtlResult r = ftl_.WritePage(lba, std::move(page), now);
  MaybeArmBackgroundGc();
  return r.ok();
}

bool Ssd::TrimBlock(std::uint64_t lba) {
  clock_.Advance(config_.host_block_gap);
  ftl::FtlResult r = TrimBlockAt(lba, clock_.Now());
  return r.ok() || r.status == ftl::FtlStatus::kUnmapped;
}

bool Ssd::AlarmActive() const { return detectors_.AnyAlarmActive(); }

std::optional<SimTime> Ssd::FirstAlarmTime() const {
  return detectors_.FirstAlarmTime();
}

ftl::RollbackReport Ssd::RollBackNow() {
  SimTime detect = detectors_.FirstAlarmTime().value_or(clock_.Now());
  return ftl_.RollBack(detect);
}

ftl::RangeRollbackReport Ssd::RollBackRange(Lba begin, Lba end,
                                            SimTime restore_point) {
  ftl::RangeRollbackReport report =
      ftl_.RollBackRange(begin, end, restore_point, clock_.Now());
  clock_.Advance(report.duration);
  return report;
}

void Ssd::Reboot() {
  ftl_.SetReadOnly(false);
  detectors_.ResetAll();
  // The pending tick's due time belongs to the pre-reset slice numbering.
  if (detector_tick_ != FirmwareScheduler::kInvalidTask) {
    scheduler_.Reschedule(detector_tick_, detectors_.NextSliceEnd());
  }
}

ftl::PageFtl::RebuildReport Ssd::PowerCycle(SimTime off_time, SimTime on_time) {
  clock_.AdvanceTo(off_time);
  // Nothing runs while the power is out; the clock jumps to power-on and
  // the FTL rebuilds from flash. The detector's sliding-window state lived
  // in DRAM, so it restarts cold (Reboot also clears any alarm latch — the
  // FTL's rebuild reinstates the degraded latch if one persisted).
  SimTime resume = on_time > off_time ? on_time : off_time;
  clock_.AdvanceTo(resume);
  ftl::PageFtl::RebuildReport report = ftl_.RebuildFromNand(resume);
  // The checkpoint restores mapping state, never the detection algorithm's
  // sliding windows — those are DRAM-only by design, so every power cycle
  // restarts the detector cold and an attack in progress must re-accumulate
  // votes. Surface that blind spot instead of leaving it implicit.
  if (config_.detector_enabled) {
    report.detector_state_lost = true;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("ssd.detector_state_loss").Inc();
    }
  }
  Reboot();
  if (ftl_.IsDegraded()) ftl_.SetReadOnly(true);  // Reboot cleared the latch
  MaybeArmBackgroundGc();
  return report;
}

void Ssd::DismissAlarm() {
  ftl_.SetReadOnly(false);
  detectors_.ResetAll();
  if (detector_tick_ != FirmwareScheduler::kInvalidTask) {
    scheduler_.Reschedule(detector_tick_, detectors_.NextSliceEnd());
  }
}

void Ssd::IdleUntil(SimTime t) {
  clock_.AdvanceTo(t);
  // Host idle time is when real firmware catches up: the drain below runs
  // the detector's slice ticks, ages backups out of the window, and lets an
  // armed background-GC task work. The one-shot registered here adds the
  // cheap idle sweep at the end of the stretch so the next write burst
  // finds a warm free pool.
  scheduler_.Schedule("idle_gc", t, [this](SimTime now) {
    // Seed ordering: close slices (a raised alarm latches read-only and
    // mutes collection) before touching the FTL.
    AdvanceDetector(now);
    ftl_.ReleaseExpired(now);
    ftl_.IdleCollect(now, config_.gc_task_block_budget,
                     config_.idle_gc_max_movable);
    return FirmwareScheduler::kNever;
  });
  DrainFirmware(t);
}

}  // namespace insider::host
