// Causal event tracer: bounded ring of begin/end spans on the virtual
// timeline, exportable as Chrome chrome://tracing JSON.
//
// Every io::Command carries a TraceId (its command id); the IoEngine opens a
// Tracer::TraceScope around dispatch so instrumentation deeper in the stack
// (FTL, GC, NAND) inherits the id without threading it through every
// signature. Background work (firmware tasks, background GC) runs outside
// any scope and emits under kBackgroundTrace.
//
// Cost model: components hold a `Tracer*` that is null until something
// attaches one, and every emit helper is an inline null-check around the
// call, so an unattached tracer costs one branch per instrumentation point.
// The tracer never touches the virtual clock, so simulated results are
// bit-identical with a tracer attached or not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace insider::obs {

using TraceId = std::uint64_t;

/// Spans emitted outside any command scope (firmware ticks, background GC).
inline constexpr TraceId kBackgroundTrace = 0;

struct TraceEvent {
  std::string name;       ///< span name, e.g. "engine.queue_wait"
  std::string cat;        ///< layer category: engine|ftl|gc|nand|fw
  TraceId trace = kBackgroundTrace;
  std::uint32_t track = 0;  ///< hardware lane: queue, chip, or channel id
  SimTime begin = 0;
  SimTime end = 0;        ///< == begin for instant events
  std::int64_t arg = 0;
  std::string arg_name;   ///< empty = no payload

  bool IsInstant() const { return end == begin; }
};

/// Fixed-capacity ring: the newest events win, the number of overwritten
/// ones is reported so a truncated export is never mistaken for a full one.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void Push(TraceEvent event);
  std::size_t Capacity() const { return capacity_; }
  std::size_t Size() const { return size_; }
  std::uint64_t Dropped() const { return dropped_; }
  /// Events oldest-first.
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;  // slot the next push lands in
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16) : buffer_(capacity) {}

  /// Emit a span [begin, end] attributed to the current trace scope.
  void Span(const char* name, const char* cat, std::uint32_t track,
            SimTime begin, SimTime end, std::int64_t arg = 0,
            const char* arg_name = "");
  /// Emit a zero-duration marker attributed to the current trace scope.
  void Instant(const char* name, const char* cat, std::uint32_t track,
               SimTime at, std::int64_t arg = 0, const char* arg_name = "");

  TraceId Current() const { return current_; }

  const TraceBuffer& Buffer() const { return buffer_; }
  TraceBuffer& Buffer() { return buffer_; }

  /// RAII causal scope: spans emitted while alive carry `id`. Tolerates a
  /// null tracer so call sites stay unconditional.
  class TraceScope {
   public:
    TraceScope(Tracer* tracer, TraceId id) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        saved_ = tracer_->current_;
        tracer_->current_ = id;
      }
    }
    ~TraceScope() {
      if (tracer_ != nullptr) tracer_->current_ = saved_;
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    Tracer* tracer_;
    TraceId saved_ = kBackgroundTrace;
  };

 private:
  TraceBuffer buffer_;
  TraceId current_ = kBackgroundTrace;
};

// Instrumentation-point helpers: null-safe, so call sites stay
// unconditional (callers only pass string literals, so nothing is
// constructed when no tracer is attached).
inline void EmitSpan(Tracer* tracer, const char* name, const char* cat,
                     std::uint32_t track, SimTime begin, SimTime end,
                     std::int64_t arg = 0, const char* arg_name = "") {
  if (tracer != nullptr) tracer->Span(name, cat, track, begin, end, arg,
                                      arg_name);
}
inline void EmitInstant(Tracer* tracer, const char* name, const char* cat,
                        std::uint32_t track, SimTime at, std::int64_t arg = 0,
                        const char* arg_name = "") {
  if (tracer != nullptr) tracer->Instant(name, cat, track, at, arg, arg_name);
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto "legacy JSON").
struct ChromeTraceOptions {
  /// When nonzero, export only events of this trace id.
  TraceId only_trace = 0;
  /// Row events by trace id instead of hardware track: one command's whole
  /// lifetime (queue-wait -> arbitration -> FTL -> NAND bus -> NAND cell)
  /// stacks as nested spans on a single row.
  bool row_per_trace = false;
};

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const ChromeTraceOptions& options = {});
/// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTrace(const std::vector<TraceEvent>& events,
                      const std::string& path,
                      const ChromeTraceOptions& options = {});

}  // namespace insider::obs
