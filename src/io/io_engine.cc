#include "io/io_engine.h"

#include <cassert>
#include <limits>

namespace insider::io {

namespace {

std::vector<std::uint32_t> WeightsOf(const EngineConfig& config) {
  std::vector<std::uint32_t> weights;
  weights.reserve(config.queue_count);
  for (std::size_t i = 0; i < config.queue_count; ++i) {
    const QueueConfig& qc =
        config.per_queue.empty() ? config.queue : config.per_queue[i];
    weights.push_back(qc.weight == 0 ? 1 : qc.weight);
  }
  return weights;
}

}  // namespace

IoEngine::IoEngine(DeviceTarget& device, const EngineConfig& config)
    : device_(device), arbiter_(config.arbiter, WeightsOf(config)),
      max_read_retries_(config.max_read_retries) {
  assert(config.queue_count > 0);
  assert(config.per_queue.empty() ||
         config.per_queue.size() == config.queue_count);
  pairs_.reserve(config.queue_count);
  for (std::size_t i = 0; i < config.queue_count; ++i) {
    const QueueConfig& qc =
        config.per_queue.empty() ? config.queue : config.per_queue[i];
    pairs_.emplace_back(static_cast<QueueId>(i), qc);
  }
  in_flight_per_pair_.assign(config.queue_count, 0);
}

std::size_t IoEngine::Outstanding(QueueId q) const {
  return pairs_[q].sq().Size() + in_flight_per_pair_[q] +
         pairs_[q].cq().Size();
}

bool IoEngine::TrySubmit(QueueId q, const IoRequest& request,
                         std::uint64_t stamp_base, std::uint64_t auth_key) {
  assert(q < pairs_.size());
  QueuePair& pair = pairs_[q];
  if (Outstanding(q) >= pair.sq().Capacity()) {
    ++pair.stats().rejected;
    ++stats_.sq_rejections;
    return false;
  }
  Command cmd;
  cmd.id = next_id_;
  cmd.queue = q;
  cmd.request = request;
  // Namespace tagging: an untagged command inherits its queue pair's
  // namespace; an explicitly tagged one keeps its id (tenant→queue
  // multiplexing — many namespaces legally share one pair).
  if (cmd.request.nsid == 0) cmd.request.nsid = pair.nsid();
  cmd.stamp_base = stamp_base;
  cmd.auth_key = auth_key;
  cmd.trace = cmd.id;
  bool pushed = pair.sq().TryPush(cmd);
  assert(pushed);  // outstanding < sq_depth implies ring room
  (void)pushed;
  ++next_id_;
  ++pair.stats().submitted;
  {
    obs::Tracer::TraceScope scope(tracer_, cmd.trace);
    obs::EmitInstant(tracer_, "engine.submit", "engine", q, request.time,
                     static_cast<std::int64_t>(request.lba), "lba");
  }
  return true;
}

void IoEngine::AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    queue_wait_hist_ = &metrics_->GetHistogram("engine.queue_wait_us");
    device_hist_ = &metrics_->GetHistogram("engine.device_us");
    latency_hist_ = &metrics_->GetHistogram("engine.latency_us");
  } else {
    queue_wait_hist_ = device_hist_ = latency_hist_ = nullptr;
  }
}

std::optional<Completion> IoEngine::PopCompletion(QueueId q) {
  assert(q < pairs_.size());
  std::optional<Completion> c = pairs_[q].cq().TryPop();
  if (c) ++pairs_[q].stats().reaped;
  return c;
}

bool IoEngine::Step() {
  // Dispatch-eligible pairs: a queued command, and guaranteed room to post
  // its completion later (in-flight commands reserve completion slots).
  std::vector<std::size_t>& eligible = eligible_;
  eligible.clear();
  SimTime earliest_dispatch = std::numeric_limits<SimTime>::max();
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const QueuePair& pair = pairs_[i];
    if (pair.sq().Empty()) continue;
    if (pair.cq().Size() + in_flight_per_pair_[i] >= pair.cq().Capacity()) {
      ++stats_.cq_stalls;
      continue;
    }
    eligible.push_back(i);
    SimTime head = pair.sq().Peek()->request.time;
    SimTime effective = head > clock_ ? head : clock_;
    if (effective < earliest_dispatch) earliest_dispatch = effective;
  }

  bool can_dispatch = !eligible.empty();
  bool can_complete = !in_flight_.empty();
  if (!can_dispatch && !can_complete) return false;

  // Process whichever event comes first in virtual time; completions win
  // ties so a freed slot is visible to the tick that needs it.
  bool complete_first =
      can_complete &&
      (!can_dispatch ||
       in_flight_.top().completion.complete_time <= earliest_dispatch);

  // The gap up to the next event is firmware time: let the device run its
  // scheduled background work (GC, housekeeping ticks) before the event.
  // Firmware only touches device internals, never the engine's queues, so
  // the eligibility computed above stays valid.
  device_.RunBackgroundUntil(complete_first
                                 ? in_flight_.top().completion.complete_time
                                 : earliest_dispatch);

  if (complete_first) {
    Completion completion = in_flight_.top().completion;
    in_flight_.pop();
    if (completion.complete_time > clock_) clock_ = completion.complete_time;

    // Bounded transparent retry: a failed read may succeed on a re-drive
    // (soft-decode over a marginal page). The retry bypasses the device's
    // host-traffic side effects (detector observation) and keeps the
    // command in flight; only the final outcome posts to the host.
    if (!completion.ok && completion.status == DeviceStatus::kReadError &&
        completion.request.mode == IoMode::kRead &&
        completion.retries < max_read_retries_) {
      IoRequest retry = completion.request;
      retry.time = completion.complete_time;
      obs::Tracer::TraceScope scope(tracer_, completion.trace);
      obs::EmitInstant(tracer_, "engine.read_retry", "engine",
                       completion.queue, completion.complete_time,
                       static_cast<std::int64_t>(completion.retries + 1),
                       "attempt");
      DispatchResult result = device_.Redrive(retry, 0);
      completion.ok = result.ok;
      completion.status = result.status;
      completion.complete_time =
          result.complete_time > completion.complete_time
              ? result.complete_time
              : completion.complete_time;
      ++completion.retries;
      ++stats_.read_retries;
      in_flight_.push(InFlightEntry{completion});
      return true;
    }

    --in_flight_per_pair_[completion.queue];
    if (metrics_ != nullptr) {
      queue_wait_hist_->Add(static_cast<double>(completion.QueueDelay()));
      device_hist_->Add(static_cast<double>(completion.complete_time -
                                            completion.dispatch_time));
      latency_hist_->Add(static_cast<double>(completion.Latency()));
    }
    bool pushed = pairs_[completion.queue].cq().TryPush(completion);
    assert(pushed);  // slot reserved at dispatch
    (void)pushed;
    if (completion.ok) {
      ++stats_.completed_ok;
    } else {
      ++stats_.completed_error;
    }
    return true;
  }

  // Dispatch: heads tied at the earliest effective time compete; the
  // arbiter picks the winner.
  std::vector<std::size_t>& candidates = candidates_;
  candidates.clear();
  for (std::size_t i : eligible) {
    SimTime head = pairs_[i].sq().Peek()->request.time;
    SimTime effective = head > clock_ ? head : clock_;
    if (effective == earliest_dispatch) candidates.push_back(i);
  }
  std::size_t chosen = arbiter_.Pick(candidates);
  QueuePair& pair = pairs_[chosen];
  Command cmd = *pair.sq().TryPop();

  if (earliest_dispatch > clock_) clock_ = earliest_dispatch;
  // The device executes the command when it leaves the submission queue,
  // not when the host produced it — restamp before handing it down.
  const SimTime submit_time = cmd.request.time;
  cmd.request.time = earliest_dispatch;
  // Everything the device does for this command — FTL lookups, GC stalls,
  // NAND bus/cell occupancy — happens under the command's trace scope.
  obs::Tracer::TraceScope scope(tracer_, cmd.trace);
  obs::EmitSpan(tracer_, "engine.queue_wait", "engine", cmd.queue,
                submit_time, earliest_dispatch,
                static_cast<std::int64_t>(cmd.request.lba), "lba");
  obs::EmitInstant(tracer_, "engine.arbitration", "engine", cmd.queue,
                   earliest_dispatch,
                   static_cast<std::int64_t>(candidates.size()),
                   "candidates");

  // Access control happens here, between arbitration and the device: lock
  // and unlock admin commands are consumed in-engine, and a write/trim that
  // overlaps a locked range without the right key is rejected before the
  // device ever sees it — the FTL provably cannot have mutated state.
  DispatchResult result;
  bool handled = false;
  if (locks_ != nullptr) {
    const IoRequest& rq = cmd.request;
    if (rq.mode == IoMode::kRangeLock || rq.mode == IoMode::kRangeUnlock) {
      bool applied =
          rq.mode == IoMode::kRangeLock
              ? locks_->Lock(rq.lba, rq.lba + rq.length, cmd.auth_key)
              : locks_->Unlock(rq.lba, rq.lba + rq.length, cmd.auth_key);
      result = {applied,
                applied ? DeviceStatus::kOk : DeviceStatus::kRangeLocked,
                earliest_dispatch};
      ++stats_.lock_admin_ops;
      handled = true;
    } else if ((rq.mode == IoMode::kWrite || rq.mode == IoMode::kTrim) &&
               !locks_->WriteAllowed(rq.lba, rq.length, cmd.auth_key)) {
      result = {false, DeviceStatus::kRangeLocked, earliest_dispatch};
      ++stats_.lock_rejections;
      obs::EmitInstant(tracer_, "engine.range_locked", "engine", cmd.queue,
                       earliest_dispatch,
                       static_cast<std::int64_t>(rq.lba), "lba");
      handled = true;
    }
  }
  if (!handled) result = device_.Dispatch(cmd.request, cmd.stamp_base);

  Completion completion;
  completion.id = cmd.id;
  completion.queue = cmd.queue;
  completion.request = cmd.request;
  completion.ok = result.ok;
  completion.status = result.status;
  completion.submit_time = submit_time;
  completion.dispatch_time = earliest_dispatch;
  completion.complete_time = result.complete_time > earliest_dispatch
                                 ? result.complete_time
                                 : earliest_dispatch;
  completion.trace = cmd.trace;
  obs::EmitSpan(tracer_, "engine.device", "engine", cmd.queue,
                earliest_dispatch, completion.complete_time,
                static_cast<std::int64_t>(cmd.request.lba), "lba");
  in_flight_.push(InFlightEntry{completion});
  ++in_flight_per_pair_[chosen];
  if (in_flight_.size() > stats_.max_in_flight) {
    stats_.max_in_flight = in_flight_.size();
  }
  ++pair.stats().dispatched;
  ++stats_.dispatched;
  return true;
}

std::size_t IoEngine::Drain() {
  std::uint64_t before = stats_.dispatched;
  while (Step()) {
  }
  return static_cast<std::size_t>(stats_.dispatched - before);
}

}  // namespace insider::io
