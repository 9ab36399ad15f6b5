#include "io/io_engine.h"

#include <algorithm>
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
  ready_pos_.assign(config.queue_count, kNotReady);
}

std::size_t IoEngine::Outstanding(QueueId q) const {
  return pairs_[q].sq().Size() + in_flight_per_pair_[q] +
         pairs_[q].cq().Size();
}

bool IoEngine::CqBlocked(QueueId q) const {
  return pairs_[q].cq().Size() + in_flight_per_pair_[q] >=
         pairs_[q].cq().Capacity();
}

void IoEngine::ReadyPlace(std::size_t i, const ReadyEntry& entry) {
  ready_[i] = entry;
  ready_pos_[entry.queue] = i;
}

std::size_t IoEngine::ReadySiftUp(std::size_t i) {
  const ReadyEntry entry = ready_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(entry < ready_[parent])) break;
    ReadyPlace(i, ready_[parent]);
    i = parent;
  }
  ReadyPlace(i, entry);
  return i;
}

std::size_t IoEngine::ReadySiftDown(std::size_t i) {
  const ReadyEntry entry = ready_[i];
  const std::size_t n = ready_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && ready_[child + 1] < ready_[child]) ++child;
    if (!(ready_[child] < entry)) break;
    ReadyPlace(i, ready_[child]);
    i = child;
  }
  ReadyPlace(i, entry);
  return i;
}

void IoEngine::ReadyInsert(QueueId q) {
  assert(ready_pos_[q] == kNotReady);
  ready_.push_back({pairs_[q].sq().Peek()->request.time, q});
  ReadySiftUp(ready_.size() - 1);
}

void IoEngine::ReadyErase(QueueId q) {
  const std::size_t i = ready_pos_[q];
  assert(i != kNotReady);
  ready_pos_[q] = kNotReady;
  const ReadyEntry last = ready_.back();
  ready_.pop_back();
  if (i == ready_.size()) return;
  ReadyPlace(i, last);
  ReadySiftDown(ReadySiftUp(i));
}

void IoEngine::CollectTied(SimTime limit) {
  // Every heap entry at or below `limit` has all its ancestors at or below
  // it too, so a breadth-first walk from the root that stops at larger
  // entries finds exactly the tied set. The walk queues heap indices in
  // candidates_ and then rewrites them as queue ids.
  std::vector<std::size_t>& tied = candidates_;
  tied.assign(1, 0);
  std::uint64_t visits = 1;
  for (std::size_t k = 0; k < tied.size(); ++k) {
    for (std::size_t child = 2 * tied[k] + 1;
         child <= 2 * tied[k] + 2 && child < ready_.size(); ++child) {
      ++visits;
      if (ready_[child].head <= limit) tied.push_back(child);
    }
  }
  stats_.pair_visits += visits;
  for (std::size_t& entry : tied) entry = ready_[entry].queue;
  std::sort(tied.begin(), tied.end());  // the arbiter wants queue order
}

bool IoEngine::TrySubmit(QueueId q, const IoRequest& request,
                         std::uint64_t stamp_base, std::uint64_t auth_key) {
  assert(q < pairs_.size());
  ++stats_.submit_calls;
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
  const bool had_head = !pair.sq().Empty();
  bool pushed = pair.sq().TryPush(cmd);
  assert(pushed);  // outstanding < sq_depth implies ring room
  (void)pushed;
  // A new head makes the pair ready, or CQ-blocked with no slot left.
  if (!had_head) {
    if (CqBlocked(q)) {
      ++cq_blocked_;
    } else {
      ReadyInsert(q);
    }
  }
  ++next_id_;
  ++pair.stats().submitted;
  {
    obs::Tracer::TraceScope scope(tracer_, cmd.trace);
    obs::EmitInstant(tracer_, "engine.submit", "engine", q, request.time,
                     static_cast<std::int64_t>(request.lba), "lba");
  }
  return true;
}

void IoEngine::ChargeRejections(QueueId q, std::uint64_t n) {
  assert(q < pairs_.size());
  pairs_[q].stats().rejected += n;
  stats_.sq_rejections += n;
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
  QueuePair& pair = pairs_[q];
  const bool was_blocked = !pair.sq().Empty() && CqBlocked(q);
  std::optional<Completion> c = pair.cq().TryPop();
  if (!c) return c;
  ++pair.stats().reaped;
  // A freed completion slot is the only thing that unblocks a pair.
  if (was_blocked && !CqBlocked(q)) {
    --cq_blocked_;
    ReadyInsert(q);
  }
  return c;
}

bool IoEngine::Step() {
  posted_.reset();
  // Every pair with a queued command but no completion slot sits this
  // event out.
  stats_.cq_stalls += cq_blocked_;

  const bool can_dispatch = !ready_.empty();
  const bool can_complete = !in_flight_.empty();
  if (!can_dispatch && !can_complete) return false;

  // The earliest effective dispatch time: the smallest head, clamped to
  // the clock (a head whose submit time has passed dispatches now).
  SimTime earliest_dispatch = std::numeric_limits<SimTime>::max();
  if (can_dispatch) {
    earliest_dispatch =
        ready_.front().head > clock_ ? ready_.front().head : clock_;
  }

  // Process whichever event comes first in virtual time; completions win
  // ties so a freed slot is visible to the tick that needs it.
  const bool complete_first =
      can_complete &&
      (!can_dispatch || in_flight_.top().complete_time <= earliest_dispatch);

  // The gap up to the next event is firmware time: let the device run its
  // scheduled background work (GC, housekeeping ticks) before the event.
  // Firmware only touches device internals, never the engine's queues, so
  // the ready heap stays valid.
  device_.RunBackgroundUntil(complete_first ? in_flight_.top().complete_time
                                            : earliest_dispatch);

  if (complete_first) {
    if (can_dispatch) ++stats_.pair_visits;  // the heap top lost the race
    PostNextCompletion();
  } else {
    DispatchHead(earliest_dispatch);
  }
  return true;
}

void IoEngine::PostNextCompletion() {
  const InFlightKey key = in_flight_.top();
  in_flight_.pop();
  Completion& completion = slots_[key.slot];
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
    obs::EmitInstant(tracer_, "engine.read_retry", "engine", completion.queue,
                     completion.complete_time,
                     static_cast<std::int64_t>(completion.retries + 1),
                     "attempt");
    DispatchResult result = device_.Redrive(retry, 0);
    completion.ok = result.ok;
    completion.status = result.status;
    completion.complete_time = result.complete_time > completion.complete_time
                                   ? result.complete_time
                                   : completion.complete_time;
    ++completion.retries;
    ++stats_.read_retries;
    in_flight_.push({completion.complete_time, completion.id, key.slot});
    return;
  }

  // Posting moves a reserved slot from in-flight to the ring, so the pair's
  // eligibility does not change.
  const QueueId q = completion.queue;
  --in_flight_per_pair_[q];
  if (metrics_ != nullptr) {
    queue_wait_hist_->Add(static_cast<double>(completion.QueueDelay()));
    device_hist_->Add(static_cast<double>(completion.complete_time -
                                          completion.dispatch_time));
    latency_hist_->Add(static_cast<double>(completion.Latency()));
  }
  if (completion.ok) {
    ++stats_.completed_ok;
  } else {
    ++stats_.completed_error;
  }
  bool pushed = pairs_[q].cq().TryPush(completion);
  assert(pushed);  // slot reserved at dispatch
  (void)pushed;
  free_slots_.push_back(key.slot);
  posted_ = q;
}

void IoEngine::DispatchHead(SimTime earliest_dispatch) {
  // Heads tied at the earliest effective time compete; the arbiter picks
  // the winner.
  CollectTied(earliest_dispatch);
  const auto chosen = static_cast<QueueId>(arbiter_.Pick(candidates_));
  QueuePair& pair = pairs_[chosen];
  Command cmd = *pair.sq().TryPop();
  ++in_flight_per_pair_[chosen];
  // The pair leaves the heap when its SQ empties or its last completion
  // slot is now reserved; otherwise its next head re-keys it.
  if (pair.sq().Empty()) {
    ReadyErase(chosen);
  } else if (CqBlocked(chosen)) {
    ReadyErase(chosen);
    ++cq_blocked_;
  } else {
    const std::size_t i = ready_pos_[chosen];
    ready_[i].head = pair.sq().Peek()->request.time;
    ReadySiftDown(ReadySiftUp(i));
  }

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
                   static_cast<std::int64_t>(candidates_.size()),
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
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(completion);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = completion;
  }
  in_flight_.push({completion.complete_time, completion.id, slot});
  if (in_flight_.size() > stats_.max_in_flight) {
    stats_.max_in_flight = in_flight_.size();
  }
  ++pair.stats().dispatched;
  ++stats_.dispatched;
}

std::size_t IoEngine::Drain() {
  std::uint64_t before = stats_.dispatched;
  while (Step()) {
  }
  return static_cast<std::size_t>(stats_.dispatched - before);
}

}  // namespace insider::io
