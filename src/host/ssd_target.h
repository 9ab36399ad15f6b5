// Adapter presenting host::Ssd as the io::DeviceTarget the multi-queue
// engine drives. Ssd::SubmitAsync honors the frontend's time-ordering
// contract (stale request times clamp to the device clock) and issues every
// block at the command's dispatch time, so commands from different queues
// overlap across the NAND array's channels/ways instead of serializing on
// each other — the device clock tracks submissions, the returned
// complete_time tracks when the media actually finished.
#pragma once

#include "host/ssd.h"
#include "io/device.h"

namespace insider::host {

class SsdTarget final : public io::DeviceTarget {
 public:
  explicit SsdTarget(Ssd& ssd) : ssd_(ssd) {}

  SimTime Now() const override { return ssd_.Clock().Now(); }

  io::DispatchResult Dispatch(const IoRequest& request,
                              std::uint64_t stamp_base) override {
    Ssd::SubmitOutcome outcome = ssd_.SubmitAsync(request, stamp_base);
    return {outcome.status == ftl::FtlStatus::kOk, StatusOf(outcome.status),
            outcome.complete_time};
  }

  /// Engine-level read retry: same execution path, but the detector must not
  /// observe the header a second time (it is the same host request).
  io::DispatchResult Redrive(const IoRequest& request,
                             std::uint64_t stamp_base) override {
    Ssd::SubmitOutcome outcome = ssd_.ResubmitAsync(request, stamp_base);
    return {outcome.status == ftl::FtlStatus::kOk, StatusOf(outcome.status),
            outcome.complete_time};
  }

  /// Inter-command gaps drain the SSD's firmware scheduler: background GC
  /// armed at the low watermark, detector slice ticks, retention aging.
  void RunBackgroundUntil(SimTime until) override {
    ssd_.DrainFirmware(until);
  }

 private:
  static io::DeviceStatus StatusOf(ftl::FtlStatus status) {
    switch (status) {
      case ftl::FtlStatus::kOk:
      case ftl::FtlStatus::kUnmapped:  // absorbed inside SubmitAsync
        return io::DeviceStatus::kOk;
      case ftl::FtlStatus::kReadOnly:
        return io::DeviceStatus::kReadOnly;
      case ftl::FtlStatus::kOutOfRange:
        return io::DeviceStatus::kInvalidAddress;
      case ftl::FtlStatus::kNoSpace:
        return io::DeviceStatus::kNoSpace;
      case ftl::FtlStatus::kReadError:
        return io::DeviceStatus::kReadError;
    }
    return io::DeviceStatus::kWriteError;
  }

  Ssd& ssd_;
};

}  // namespace insider::host
