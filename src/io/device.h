// The device side of the I/O frontend.
//
// The engine is generic over anything that can execute one block-I/O request
// at a monotone virtual clock — host::Ssd (via host::SsdTarget) in the real
// stack, fakes in unit tests. Keeping the interface here lets `src/io` sit
// below `src/workload` and `src/host` in the layering with no cycles.
#pragma once

#include <cstdint>

#include "common/io.h"
#include "common/time.h"

namespace insider::nand {
class DeferredApplier;
}

namespace insider::io {

/// Device-level completion status, the NVMe-status-field analogue the engine
/// propagates into Completions. kReadError is the one status the engine
/// treats as possibly transient (an uncorrectable-ECC read may succeed on a
/// soft retry); everything else is final.
enum class [[nodiscard]] DeviceStatus : std::uint8_t {
  kOk,
  kInvalidAddress,  ///< LBA beyond the device's exported capacity
  kReadOnly,        ///< device latched read-only (alarm or degraded)
  kNoSpace,         ///< write could not be placed (device full/degraded)
  kReadError,       ///< media read failure; retryable
  kWriteError,      ///< unclassified write-path failure
  /// Write/trim rejected at the frontend: the range is locked and the
  /// command's auth key doesn't match (version::RangeLockTable). Also the
  /// status of a failed lock/unlock admin command. Never reaches the FTL.
  kRangeLocked,
};

struct DispatchResult {
  bool ok = true;
  DeviceStatus status = DeviceStatus::kOk;
  /// Virtual time when the request's last block finished in the media. May
  /// exceed Now(): a pipelined device accepts the command, schedules it on
  /// busy media, and reports the finish time up front — the engine holds the
  /// completion in flight until then.
  SimTime complete_time = 0;
};

class DeviceTarget {
 public:
  virtual ~DeviceTarget() = default;

  /// Current device clock (submission side). Monotone; only Dispatch
  /// advances it.
  virtual SimTime Now() const = 0;

  /// Issue one request at virtual time `request.time`. A request stamped
  /// earlier than Now() must be clamped to Now() by the device (see the
  /// host::Ssd::Submit time-ordering contract) — the engine relies on this
  /// when a queued command's submit time has already passed. The device may
  /// execute asynchronously: it returns the (possibly future) complete_time
  /// and lets internal resource occupancy serialize what must serialize.
  virtual DispatchResult Dispatch(const IoRequest& request,
                                  std::uint64_t stamp_base) = 0;

  /// Re-issue a request the engine is retrying after a transient failure
  /// (bounded read retry). Semantically a Dispatch, except the device must
  /// NOT treat it as new host traffic — e.g. the SSD skips the detector's
  /// header observation so a retried read is not double-counted. Default:
  /// devices with no such side channel just dispatch again.
  virtual DispatchResult Redrive(const IoRequest& request,
                                 std::uint64_t stamp_base) {
    return Dispatch(request, stamp_base);
  }

  /// Called by the engine before it processes its next event, with that
  /// event's virtual time: the inter-command gap belongs to the device's
  /// firmware (background GC, detector ticks, retention aging). The engine
  /// processes events in non-decreasing time order, so `until` is monotone.
  /// Default: the device has no background work.
  virtual void RunBackgroundUntil(SimTime /*until*/) {}

  /// Inert no-op: nothing calls it; kept only because perfbench/ overrides it.
  virtual void AttachDeferredApplier(nand::DeferredApplier* /*applier*/) {}
};

}  // namespace insider::io
