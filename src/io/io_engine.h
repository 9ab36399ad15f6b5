// The multi-queue I/O engine: the "device controller" end of the frontend.
//
// Hosts push commands onto per-stream submission queues with TrySubmit()
// (false = the pair already has `sq_depth` outstanding commands — the host
// must stall until it reaps a completion). The engine runs a discrete-event
// loop over two event kinds, always processing the earlier one:
//
//   * dispatch — pull the head command of one submission queue and hand it
//     to the DeviceTarget. A command dispatches no earlier than its submit
//     time and no earlier than the engine clock; commands therefore start
//     in virtual-time order across queues, and when several heads tie at
//     one virtual-time tick the QueueArbiter (round-robin or weighted
//     round-robin) decides — that is where queue fairness is made.
//   * complete — a previously dispatched command's completion (the device
//     reports its finish time up front; NAND occupancy inside the device
//     is what pushes it out) is posted to the pair's completion ring at its
//     completion time.
//
// Both event sources are indexed, so an event costs O(log pairs +
// log in-flight) rather than a scan of every pair:
//   * dispatch-eligible pairs (a queued command, room to post its
//     completion) sit in an indexed min-heap keyed by (head submit time,
//     queue id). Eligibility changes in exactly three places — TrySubmit
//     giving an empty SQ a head, dispatch popping a head, PopCompletion
//     freeing a completion slot — and the heap is updated there. The tied
//     candidates of a dispatch are the heap prefix at or below
//     max(top, clock), handed to the arbiter in queue-id order;
//   * in-flight commands sit in a min-heap of {complete_time, id, slot}
//     keys; the Completion records stay put in a slot array.
//
// Dispatch does NOT wait for outstanding commands: the device pipelines
// internally (chip/channel busy-until), so queue depth and queue count
// govern how much of the array's parallelism the hosts can actually use —
// the property the mqueue_throughput bench measures.
//
// Backpressure, both directions:
//   * submission side — a pair at its outstanding limit rejects TrySubmit.
//     A host that knows a pair is still full may skip the doomed calls and
//     charge them afterwards with ChargeRejections();
//   * completion side — a pair whose completion ring cannot absorb another
//     completion is skipped by dispatch (device-side stall) until the host
//     reaps. Such pairs are counted as they block and unblock, and every
//     Step() adds that count to cq_stalls.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "io/arbiter.h"
#include "io/device.h"
#include "io/queue_pair.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "version/range_lock.h"

namespace insider::io {

struct EngineConfig {
  std::size_t queue_count = 1;
  /// Default ring shape for every pair.
  QueueConfig queue;
  /// Optional per-queue overrides; if non-empty, size must equal queue_count.
  std::vector<QueueConfig> per_queue;
  ArbiterConfig arbiter;
  /// Bounded transparent retry for failed reads (uncorrectable ECC can be
  /// transient under soft-decode). A read completion carrying
  /// DeviceStatus::kReadError is re-driven up to this many times before the
  /// error posts to the host. 0 disables retries.
  std::uint32_t max_read_retries = 2;
  /// Inert: read by nothing, kept only because perfbench/ still sets it.
  std::size_t shard_threads = 0;
};

struct EngineStats {
  std::uint64_t dispatched = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;
  std::uint64_t sq_rejections = 0;  ///< host-side backpressure events
  std::uint64_t cq_stalls = 0;      ///< pair skipped: completion ring full
  std::uint64_t max_in_flight = 0;  ///< peak concurrently executing commands
  std::uint64_t read_retries = 0;   ///< transparent read re-drives
  std::uint64_t lock_admin_ops = 0;   ///< range lock/unlock commands handled
  std::uint64_t lock_rejections = 0;  ///< writes/trims bounced off a lock
  /// Work counters (deterministic, machine-independent): every TrySubmit
  /// call, accepted or not, and every ready pair whose head an event's
  /// arbitration examined.
  std::uint64_t submit_calls = 0;
  std::uint64_t pair_visits = 0;
};

class IoEngine {
 public:
  IoEngine(DeviceTarget& device, const EngineConfig& config);

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  std::size_t QueueCount() const { return pairs_.size(); }
  const QueuePair& Pair(QueueId q) const { return pairs_[q]; }

  /// Host side: enqueue a command. False = the pair is at its outstanding
  /// limit (queued + executing + unreaped == sq_depth); the caller must reap
  /// completions (or wait) and retry — nothing was queued. `auth_key` is the
  /// range-lock credential (the key for kRangeLock/kRangeUnlock, proof of
  /// authority for writes/trims into locked ranges); 0 = unauthenticated.
  [[nodiscard]] bool TrySubmit(QueueId q, const IoRequest& request,
                 std::uint64_t stamp_base = 0, std::uint64_t auth_key = 0);

  /// Host side: count `n` submissions to pair `q` that the host knows would
  /// have been refused (it never made them because the pair stayed full).
  /// Adds `n` to the pair's `rejected` and to `sq_rejections`, exactly as
  /// `n` refused TrySubmit calls would have.
  void ChargeRejections(QueueId q, std::uint64_t n);

  /// Host side: reap the oldest posted completion of a pair, if any.
  std::optional<Completion> PopCompletion(QueueId q);

  std::size_t PendingCompletions(QueueId q) const {
    return pairs_[q].cq().Size();
  }
  /// Commands dispatched to the device whose completion has not yet posted.
  std::size_t InFlight() const { return in_flight_.size(); }

  /// Virtual time of the last processed event.
  SimTime Now() const { return clock_; }

  /// Process one event (dispatch or completion posting). Returns false when
  /// nothing can happen: no command in flight and every submission queue is
  /// empty or blocked on a full completion ring.
  bool Step();

  /// The pair the last Step() posted a completion to; nullopt when that
  /// Step dispatched, re-drove a read or did nothing. A host that reaps
  /// after every Step needs to look at this pair only.
  std::optional<QueueId> PostedQueue() const { return posted_; }

  /// Step until no further progress is possible. Returns the number of
  /// commands *dispatched*. With hosts not reaping, this stops once
  /// completion rings fill — it never spins.
  std::size_t Drain();

  const EngineStats& Stats() const { return stats_; }

  /// Attach the observability sinks (either may be null). The tracer gets
  /// submit/arbitration/queue-wait/device spans, each carrying the command's
  /// trace id; dispatch additionally opens a Tracer::TraceScope so spans the
  /// device emits underneath inherit the id. The metrics registry gets the
  /// per-phase latency histograms engine.queue_wait_us / engine.device_us /
  /// engine.latency_us, recorded when a completion finally posts.
  void AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Attach the access-control table (may be null = no enforcement). With a
  /// table attached, kRangeLock/kRangeUnlock commands are consumed entirely
  /// at the frontend, and writes/trims overlapping a locked range without
  /// the right key complete with DeviceStatus::kRangeLocked — the device
  /// never sees them, so FTL state provably cannot change.
  void AttachLockTable(version::RangeLockTable* locks) { locks_ = locks; }

 private:
  /// A ready pair's place in the dispatch heap: its head's submit time,
  /// cached so sifts never touch the ring.
  struct ReadyEntry {
    SimTime head = 0;
    QueueId queue = 0;
    bool operator<(const ReadyEntry& other) const {
      return head != other.head ? head < other.head : queue < other.queue;
    }
  };
  /// An in-flight command's place in the completion heap; its Completion
  /// stays in slots_[slot].
  struct InFlightKey {
    SimTime complete_time = 0;
    CommandId id = 0;
    std::uint32_t slot = 0;
    bool operator>(const InFlightKey& other) const {
      if (complete_time != other.complete_time) {
        return complete_time > other.complete_time;
      }
      return id > other.id;  // deterministic ties
    }
  };
  static constexpr std::size_t kNotReady = ~std::size_t{0};

  std::size_t Outstanding(QueueId q) const;
  /// No room to post one more completion: queued completions plus in-flight
  /// commands (which reserve their slots) fill the completion ring.
  bool CqBlocked(QueueId q) const;
  void ReadyInsert(QueueId q);
  void ReadyErase(QueueId q);
  /// Restore heap order around index `i`; each returns the entry's final
  /// index.
  std::size_t ReadySiftUp(std::size_t i);
  std::size_t ReadySiftDown(std::size_t i);
  void ReadyPlace(std::size_t i, const ReadyEntry& entry);
  /// Fill candidates_ with every ready pair whose head is at or below
  /// `limit`, in queue-id order.
  void CollectTied(SimTime limit);
  /// The two event kinds of Step(), after it has picked which comes first.
  void DispatchHead(SimTime earliest_dispatch);
  void PostNextCompletion();

  DeviceTarget& device_;
  std::vector<QueuePair> pairs_;
  QueueArbiter arbiter_;
  std::vector<ReadyEntry> ready_;         ///< binary min-heap
  std::vector<std::size_t> ready_pos_;    ///< pair -> heap index, kNotReady
  std::size_t cq_blocked_ = 0;  ///< pairs with a head but no CQ slot
  std::priority_queue<InFlightKey, std::vector<InFlightKey>,
                      std::greater<InFlightKey>>
      in_flight_;
  std::vector<Completion> slots_;          ///< in-flight records
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> in_flight_per_pair_;
  /// Step()'s tie-candidate list, kept so dispatch does not allocate.
  std::vector<std::size_t> candidates_;
  std::optional<QueueId> posted_;
  SimTime clock_ = 0;
  EngineStats stats_;
  CommandId next_id_ = 1;
  std::uint32_t max_read_retries_ = 0;

  version::RangeLockTable* locks_ = nullptr;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached so the completion hot path skips the registry's name lookup.
  obs::LogHistogram* queue_wait_hist_ = nullptr;
  obs::LogHistogram* device_hist_ = nullptr;
  obs::LogHistogram* latency_hist_ = nullptr;
};

}  // namespace insider::io
