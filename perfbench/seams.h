// Timing decorators for the traced benchmark run.
//
// Each class wraps one public seam of the simulator and forwards every call
// unchanged, timing it with std::chrono::steady_clock on the way through.
// None of them touches virtual time or device state, so a run with the
// decorators installed must produce the same FtlStats, completion stream
// and virtual-time metrics as a run without them; the benchmark checks
// that on every traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/io.h"
#include "fs/block_device.h"
#include "ftl/policy.h"
#include "io/device.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Call count and busy time of one seam. With `keep_samples` every call's
/// duration is kept (as float ns) for percentiles.
class CallTimer {
 public:
  explicit CallTimer(bool keep_samples = false) : keep_samples_(keep_samples) {}

  void Add(double ns) {
    ++calls_;
    total_ns_ += ns;
    if (keep_samples_) samples_.push_back(static_cast<float>(ns));
  }
  std::uint64_t Calls() const { return calls_; }
  double TotalNs() const { return total_ns_; }
  const std::vector<float>& Samples() const { return samples_; }
  void Reset() {
    calls_ = 0;
    total_ns_ = 0.0;
    samples_.clear();
  }

 private:
  bool keep_samples_;
  std::uint64_t calls_ = 0;
  double total_ns_ = 0.0;
  std::vector<float> samples_;
};

/// io::DeviceTarget decorator (wraps host::SsdTarget under io::IoEngine).
/// Also captures the header stream exactly as the device's detector sees
/// it: the request clamped to the device clock, as host::Ssd does.
class TimedTarget final : public insider::io::DeviceTarget {
 public:
  explicit TimedTarget(insider::io::DeviceTarget& inner) : inner_(inner) {}

  insider::SimTime Now() const override { return inner_.Now(); }

  insider::io::DispatchResult Dispatch(const insider::IoRequest& request,
                                       std::uint64_t stamp_base) override {
    insider::IoRequest seen = request;
    if (seen.time < inner_.Now()) seen.time = inner_.Now();
    headers_.push_back(seen);
    const Clock::time_point t0 = Clock::now();
    insider::io::DispatchResult r = inner_.Dispatch(request, stamp_base);
    dispatch_.Add(NsBetween(t0, Clock::now()));
    return r;
  }

  insider::io::DispatchResult Redrive(const insider::IoRequest& request,
                                      std::uint64_t stamp_base) override {
    const Clock::time_point t0 = Clock::now();
    insider::io::DispatchResult r = inner_.Redrive(request, stamp_base);
    redrive_.Add(NsBetween(t0, Clock::now()));
    return r;
  }

  void RunBackgroundUntil(insider::SimTime until) override {
    const Clock::time_point t0 = Clock::now();
    inner_.RunBackgroundUntil(until);
    firmware_.Add(NsBetween(t0, Clock::now()));
  }

  void AttachDeferredApplier(insider::nand::DeferredApplier* applier) override {
    inner_.AttachDeferredApplier(applier);
  }

  const CallTimer& DispatchTimer() const { return dispatch_; }
  const CallTimer& RedriveTimer() const { return redrive_; }
  const CallTimer& FirmwareTimer() const { return firmware_; }
  const std::vector<insider::IoRequest>& Headers() const { return headers_; }

 private:
  insider::io::DeviceTarget& inner_;
  CallTimer dispatch_{true};
  CallTimer redrive_;
  CallTimer firmware_;
  std::vector<insider::IoRequest> headers_;
};

/// fs::BlockDevice decorator (wraps host::Ssd under InsiderFS and fsck).
class TimedBlockDevice final : public insider::fs::BlockDevice {
 public:
  explicit TimedBlockDevice(insider::fs::BlockDevice& inner) : inner_(inner) {}

  std::uint64_t BlockCount() const override { return inner_.BlockCount(); }

  bool ReadBlock(std::uint64_t lba, std::span<std::byte> out) override {
    const Clock::time_point t0 = Clock::now();
    bool ok = inner_.ReadBlock(lba, out);
    io_.Add(NsBetween(t0, Clock::now()));
    return ok;
  }
  bool WriteBlock(std::uint64_t lba,
                  std::span<const std::byte> data) override {
    const Clock::time_point t0 = Clock::now();
    bool ok = inner_.WriteBlock(lba, data);
    io_.Add(NsBetween(t0, Clock::now()));
    return ok;
  }
  bool TrimBlock(std::uint64_t lba) override {
    const Clock::time_point t0 = Clock::now();
    bool ok = inner_.TrimBlock(lba);
    io_.Add(NsBetween(t0, Clock::now()));
    return ok;
  }

  const CallTimer& IoTimer() const { return io_; }

 private:
  insider::fs::BlockDevice& inner_;
  CallTimer io_;
};

/// ftl::VictimPolicy decorator, installed with PageFtl::SetVictimPolicy.
class TimedVictimPolicy final : public insider::ftl::VictimPolicy {
 public:
  explicit TimedVictimPolicy(std::unique_ptr<insider::ftl::VictimPolicy> inner)
      : inner_(std::move(inner)) {}

  const char* Name() const override { return inner_->Name(); }
  std::uint32_t SelectVictim(const insider::ftl::PolicyView& view,
                             std::uint32_t max_movable) override {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t v = inner_->SelectVictim(view, max_movable);
    timer_.Add(NsBetween(t0, Clock::now()));
    return v;
  }

  CallTimer& Timer() { return timer_; }

 private:
  std::unique_ptr<insider::ftl::VictimPolicy> inner_;
  CallTimer timer_;
};

/// ftl::AllocationPolicy decorator, installed with
/// PageFtl::SetAllocationPolicy.
class TimedAllocationPolicy final : public insider::ftl::AllocationPolicy {
 public:
  explicit TimedAllocationPolicy(
      std::unique_ptr<insider::ftl::AllocationPolicy> inner)
      : inner_(std::move(inner)) {}

  const char* Name() const override { return inner_->Name(); }
  std::optional<std::uint32_t> NextChip(
      const insider::ftl::PolicyView& view) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<std::uint32_t> chip = inner_->NextChip(view);
    timer_.Add(NsBetween(t0, Clock::now()));
    return chip;
  }

  CallTimer& Timer() { return timer_; }

 private:
  std::unique_ptr<insider::ftl::AllocationPolicy> inner_;
  CallTimer timer_;
};

}  // namespace perfbench
