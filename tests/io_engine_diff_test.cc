// Differential test of the event-driven host loop.
//
// ReferenceEngine below is the scan-based engine the indexed one replaced:
// on every event it walks all pairs for the eligible set, the earliest head
// and the tied candidates. ReferenceRun is the driver loop that went with
// it: after every event it retries each full pair once (to charge a stall)
// and reaps every pair. Random seeds are replayed through old and new, and
// every completion, counter and per-tenant result must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "io/io_engine.h"
#include "version/range_lock.h"
#include "workload/multi_tenant.h"

namespace insider::io {
namespace {

/// The scan-based engine, kept verbatim in effect (observability sinks
/// left out: they never change a completion).
class ReferenceEngine {
 public:
  ReferenceEngine(DeviceTarget& device, const EngineConfig& config)
      : device_(device), arbiter_(config.arbiter, Weights(config)),
        max_read_retries_(config.max_read_retries) {
    for (std::size_t i = 0; i < config.queue_count; ++i) {
      pairs_.emplace_back(static_cast<QueueId>(i),
                          config.per_queue.empty() ? config.queue
                                                   : config.per_queue[i]);
    }
    in_flight_per_pair_.assign(config.queue_count, 0);
  }

  std::size_t QueueCount() const { return pairs_.size(); }
  const QueuePair& Pair(QueueId q) const { return pairs_[q]; }
  std::size_t PendingCompletions(QueueId q) const {
    return pairs_[q].cq().Size();
  }
  std::size_t InFlight() const { return in_flight_.size(); }
  SimTime Now() const { return clock_; }
  const EngineStats& Stats() const { return stats_; }
  void AttachLockTable(version::RangeLockTable* locks) { locks_ = locks; }

  bool TrySubmit(QueueId q, const IoRequest& request,
                 std::uint64_t stamp_base = 0, std::uint64_t auth_key = 0) {
    ++stats_.submit_calls;
    QueuePair& pair = pairs_[q];
    if (pair.sq().Size() + in_flight_per_pair_[q] + pair.cq().Size() >=
        pair.sq().Capacity()) {
      ++pair.stats().rejected;
      ++stats_.sq_rejections;
      return false;
    }
    Command cmd;
    cmd.id = next_id_++;
    cmd.queue = q;
    cmd.request = request;
    if (cmd.request.nsid == 0) cmd.request.nsid = pair.nsid();
    cmd.stamp_base = stamp_base;
    cmd.auth_key = auth_key;
    cmd.trace = cmd.id;
    EXPECT_TRUE(pair.sq().TryPush(cmd));
    ++pair.stats().submitted;
    return true;
  }

  std::optional<Completion> PopCompletion(QueueId q) {
    std::optional<Completion> c = pairs_[q].cq().TryPop();
    if (c) ++pairs_[q].stats().reaped;
    return c;
  }

  bool Step() {
    eligible_.clear();
    SimTime earliest = std::numeric_limits<SimTime>::max();
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      ++stats_.pair_visits;
      const QueuePair& pair = pairs_[i];
      if (pair.sq().Empty()) continue;
      if (pair.cq().Size() + in_flight_per_pair_[i] >= pair.cq().Capacity()) {
        ++stats_.cq_stalls;
        continue;
      }
      eligible_.push_back(i);
      earliest = std::min(earliest,
                          std::max(pair.sq().Peek()->request.time, clock_));
    }
    const bool can_dispatch = !eligible_.empty();
    const bool can_complete = !in_flight_.empty();
    if (!can_dispatch && !can_complete) return false;
    const bool complete_first =
        can_complete &&
        (!can_dispatch || in_flight_.top().completion.complete_time <= earliest);
    device_.RunBackgroundUntil(
        complete_first ? in_flight_.top().completion.complete_time : earliest);

    if (complete_first) {
      Completion c = in_flight_.top().completion;
      in_flight_.pop();
      clock_ = std::max(clock_, c.complete_time);
      if (!c.ok && c.status == DeviceStatus::kReadError &&
          c.request.mode == IoMode::kRead && c.retries < max_read_retries_) {
        IoRequest retry = c.request;
        retry.time = c.complete_time;
        DispatchResult result = device_.Redrive(retry, 0);
        c.ok = result.ok;
        c.status = result.status;
        c.complete_time = std::max(result.complete_time, c.complete_time);
        ++c.retries;
        ++stats_.read_retries;
        in_flight_.push({c});
        return true;
      }
      --in_flight_per_pair_[c.queue];
      EXPECT_TRUE(pairs_[c.queue].cq().TryPush(c));
      ++(c.ok ? stats_.completed_ok : stats_.completed_error);
      return true;
    }

    candidates_.clear();
    for (std::size_t i : eligible_) {
      ++stats_.pair_visits;
      if (std::max(pairs_[i].sq().Peek()->request.time, clock_) == earliest) {
        candidates_.push_back(i);
      }
    }
    const std::size_t chosen = arbiter_.Pick(candidates_);
    QueuePair& pair = pairs_[chosen];
    Command cmd = *pair.sq().TryPop();
    clock_ = std::max(clock_, earliest);
    const SimTime submit_time = cmd.request.time;
    cmd.request.time = earliest;
    DispatchResult result;
    bool handled = false;
    if (locks_ != nullptr) {
      const IoRequest& rq = cmd.request;
      if (rq.mode == IoMode::kRangeLock || rq.mode == IoMode::kRangeUnlock) {
        const bool applied =
            rq.mode == IoMode::kRangeLock
                ? locks_->Lock(rq.lba, rq.lba + rq.length, cmd.auth_key)
                : locks_->Unlock(rq.lba, rq.lba + rq.length, cmd.auth_key);
        result = {applied,
                  applied ? DeviceStatus::kOk : DeviceStatus::kRangeLocked,
                  earliest};
        ++stats_.lock_admin_ops;
        handled = true;
      } else if ((rq.mode == IoMode::kWrite || rq.mode == IoMode::kTrim) &&
                 !locks_->WriteAllowed(rq.lba, rq.length, cmd.auth_key)) {
        result = {false, DeviceStatus::kRangeLocked, earliest};
        ++stats_.lock_rejections;
        handled = true;
      }
    }
    if (!handled) result = device_.Dispatch(cmd.request, cmd.stamp_base);
    Completion c;
    c.id = cmd.id;
    c.queue = cmd.queue;
    c.request = cmd.request;
    c.ok = result.ok;
    c.status = result.status;
    c.submit_time = submit_time;
    c.dispatch_time = earliest;
    c.complete_time = std::max(result.complete_time, earliest);
    c.trace = cmd.trace;
    in_flight_.push({c});
    ++in_flight_per_pair_[chosen];
    stats_.max_in_flight =
        std::max<std::uint64_t>(stats_.max_in_flight, in_flight_.size());
    ++pair.stats().dispatched;
    ++stats_.dispatched;
    return true;
  }

 private:
  struct Entry {
    Completion completion;
    bool operator>(const Entry& o) const {
      if (completion.complete_time != o.completion.complete_time) {
        return completion.complete_time > o.completion.complete_time;
      }
      return completion.id > o.completion.id;
    }
  };

  static std::vector<std::uint32_t> Weights(const EngineConfig& config) {
    std::vector<std::uint32_t> w;
    for (std::size_t i = 0; i < config.queue_count; ++i) {
      const QueueConfig& qc =
          config.per_queue.empty() ? config.queue : config.per_queue[i];
      w.push_back(qc.weight == 0 ? 1 : qc.weight);
    }
    return w;
  }

  DeviceTarget& device_;
  std::vector<QueuePair> pairs_;
  QueueArbiter arbiter_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
      in_flight_;
  std::vector<std::size_t> in_flight_per_pair_;
  std::vector<std::size_t> eligible_;
  std::vector<std::size_t> candidates_;
  SimTime clock_ = 0;
  EngineStats stats_;
  CommandId next_id_ = 1;
  std::uint32_t max_read_retries_ = 0;
  version::RangeLockTable* locks_ = nullptr;
};

/// The driver loop that went with the scan-based engine: every event, each
/// pair that reaped nothing retries its head once (a refusal that charges a
/// stall), the unblocked pairs pick, and then every pair is reaped.
wl::MultiTenantReport ReferenceRun(const std::vector<wl::TenantSpec>& tenants,
                                   ReferenceEngine& engine) {
  const std::size_t n = tenants.size();
  const std::size_t queues = engine.QueueCount();
  wl::MultiTenantReport report;
  report.tenants.resize(n);
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> written(n, 0);
  std::unordered_map<std::uint32_t, std::size_t> tenant_of_ns;
  for (std::size_t i = 0; i < n; ++i) {
    report.tenants[i].nsid = static_cast<std::uint32_t>(i) + 1;
    tenant_of_ns[report.tenants[i].nsid] = i;
  }
  std::vector<char> reaped(queues, 1);
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) {
      while (auto c = engine.PopCompletion(static_cast<QueueId>(q))) {
        reaped[q] = 1;
        report.end_time = std::max(report.end_time, c->complete_time);
        auto it = tenant_of_ns.find(c->request.nsid);
        if (it == tenant_of_ns.end()) continue;
        wl::TenantResult& r = report.tenants[it->second];
        ++r.completed;
        if (!c->ok) ++r.errors;
        r.latencies.push_back(c->Latency());
        r.complete_times.push_back(c->complete_time);
      }
    }
  };
  // Tenant order: earliest next due time, lower index on ties.
  auto due = [&](std::size_t i) { return tenants[i].requests[cursor[i]].time; };
  auto before = [&](std::size_t a, std::size_t b) {
    return due(a) != due(b) ? due(a) < due(b) : a < b;
  };
  // The pair's next tenant, or n when its tenants are drained.
  auto head_of = [&](std::size_t q) {
    std::size_t best = n;
    for (std::size_t i = q; i < n; i += queues) {
      if (cursor[i] >= tenants[i].requests.size()) continue;
      if (best == n || before(i, best)) best = i;
    }
    return best;
  };
  std::vector<char> blocked(queues, 0);
  auto submit = [&](std::size_t best) {
    IoRequest req = tenants[best].requests[cursor[best]];
    req.nsid = report.tenants[best].nsid;
    const auto q = static_cast<QueueId>(best % queues);
    if (!engine.TrySubmit(q, req, tenants[best].stamp_base + written[best])) {
      ++report.tenants[best].stall_events;
      blocked[q] = 1;
      return;
    }
    ++report.tenants[best].submitted;
    if (req.mode == IoMode::kWrite) written[best] += req.length;
    ++cursor[best];
  };
  for (;;) {
    for (std::size_t q = 0; q < queues; ++q) {
      blocked[q] = 0;
      const std::size_t head = head_of(q);
      if (!reaped[q] && head != n) submit(head);
    }
    std::fill(reaped.begin(), reaped.end(), 0);
    for (;;) {
      std::size_t best = n;
      for (std::size_t q = 0; q < queues; ++q) {
        const std::size_t head = head_of(q);
        if (blocked[q] || head == n) continue;
        if (best == n || before(head, best)) best = head;
      }
      if (best == n) break;
      submit(best);
    }
    if (!engine.Step()) {
      bool drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        drained = drained && cursor[i] >= tenants[i].requests.size();
      }
      if (drained && engine.InFlight() == 0) break;
    }
    reap_all();
  }
  return report;
}

/// Deterministic pipelined device: three lanes with per-LBA service times.
/// Reads of some LBAs fail with kReadError, and a re-drive fails again on
/// every third call, so retries run and some exhaust. It digests every
/// call it sees, so two devices driven identically digest identically.
class FlakyLaneDevice final : public DeviceTarget {
 public:
  SimTime Now() const override { return now_; }
  DispatchResult Dispatch(const IoRequest& r, std::uint64_t stamp) override {
    Mix(1, r.time, r.lba, stamp);
    now_ = std::max(now_, r.time);
    const bool fail = r.mode == IoMode::kRead && r.lba % 7 == 3;
    return {!fail, fail ? DeviceStatus::kReadError : DeviceStatus::kOk,
            Occupy(r)};
  }
  DispatchResult Redrive(const IoRequest& r, std::uint64_t stamp) override {
    Mix(2, r.time, r.lba, stamp);
    const bool fail = ++redrives_ % 3 == 0;
    return {!fail, fail ? DeviceStatus::kReadError : DeviceStatus::kOk,
            Occupy(r)};
  }
  void RunBackgroundUntil(SimTime until) override { Mix(3, until, 0, 0); }

  std::uint64_t Digest() const { return digest_; }

 private:
  SimTime Occupy(const IoRequest& r) {
    SimTime& busy = busy_[r.lba % 3];
    busy = std::max(busy, std::max(now_, r.time)) + 40 +
           CostOf(r.lba % 5, 15) + CostOf(r.length, 10) +
           (r.mode == IoMode::kWrite ? 90 : 0);
    return busy;
  }
  void Mix(std::uint64_t kind, SimTime t, std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t v : {kind, RawMicrosU64(t), a, b}) {
      digest_ = SplitMix64(digest_ ^ v);
    }
  }

  SimTime now_ = 0;
  SimTime busy_[3] = {};
  std::uint64_t redrives_ = 0;
  std::uint64_t digest_ = 0;
};

EngineConfig RandomConfig(Rng& rng) {
  EngineConfig c;
  c.queue_count = 1 + rng.Below(6);
  c.queue.sq_depth = 1 + rng.Below(5);
  c.queue.cq_depth = rng.Chance(0.35) ? 1 + rng.Below(c.queue.sq_depth) : 0;
  c.max_read_retries = static_cast<std::uint32_t>(rng.Below(3));
  if (rng.Chance(0.5)) {
    c.arbiter.policy = ArbiterPolicy::kWeightedRoundRobin;
    c.arbiter.burst = static_cast<std::uint32_t>(rng.Below(3));
  }
  if (rng.Chance(0.5)) {
    for (std::size_t q = 0; q < c.queue_count; ++q) {
      QueueConfig qc = c.queue;
      qc.sq_depth = 1 + rng.Below(6);
      qc.cq_depth = rng.Chance(0.4) ? 1 + rng.Below(qc.sq_depth) : 0;
      qc.weight = static_cast<std::uint32_t>(rng.Below(4));
      c.per_queue.push_back(qc);
    }
  }
  return c;
}

/// Everything but the two work counters, which measure the loops
/// themselves and are meant to differ.
void ExpectSameStats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.completed_error, b.completed_error);
  EXPECT_EQ(a.sq_rejections, b.sq_rejections);
  EXPECT_EQ(a.cq_stalls, b.cq_stalls);
  EXPECT_EQ(a.max_in_flight, b.max_in_flight);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.lock_admin_ops, b.lock_admin_ops);
  EXPECT_EQ(a.lock_rejections, b.lock_rejections);
}

void ExpectSamePairs(const IoEngine& got, const ReferenceEngine& want) {
  for (QueueId q = 0; q < got.QueueCount(); ++q) {
    const QueuePairStats& a = got.Pair(q).stats();
    const QueuePairStats& b = want.Pair(q).stats();
    EXPECT_EQ(a.submitted, b.submitted) << q;
    EXPECT_EQ(a.rejected, b.rejected) << q;
    EXPECT_EQ(a.dispatched, b.dispatched) << q;
    EXPECT_EQ(a.reaped, b.reaped) << q;
    EXPECT_EQ(got.PendingCompletions(q), want.PendingCompletions(q)) << q;
  }
}

void ExpectSameCompletion(const Completion& a, const Completion& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.request, b.request);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.submit_time, b.submit_time);
  EXPECT_EQ(a.dispatch_time, b.dispatch_time);
  EXPECT_EQ(a.complete_time, b.complete_time);
}

IoRequest RandomRequest(Rng& rng, SimTime base) {
  IoRequest r;
  // Coarse times so heads tie often; some land behind the engine clock.
  r.time = base + CostOf(rng.Below(6), 50);
  r.lba = rng.Below(48);
  r.length = 1 + static_cast<std::uint32_t>(rng.Below(3));
  const std::uint64_t m = rng.Below(20);
  r.mode = m < 9    ? IoMode::kRead
           : m < 17 ? IoMode::kWrite
           : m < 18 ? IoMode::kTrim
           : m < 19 ? IoMode::kRangeLock
                    : IoMode::kRangeUnlock;
  return r;
}

TEST(IoEngineDiffTest, DirectApiMatchesScanReference) {
  Rng rng(0xE17E);
  EngineStats seen;  // summed over trials: every path must be exercised
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const EngineConfig cfg = RandomConfig(rng);
    FlakyLaneDevice ref_device;
    FlakyLaneDevice device;
    ReferenceEngine want(ref_device, cfg);
    IoEngine got(device, cfg);
    version::RangeLockTable ref_locks;
    version::RangeLockTable locks;
    if (rng.Chance(0.5)) {
      want.AttachLockTable(&ref_locks);
      got.AttachLockTable(&locks);
    }
    SimTime base = 0;
    const std::size_t ops = 100 + rng.Below(300);
    for (std::size_t op = 0; op < ops + 1000; ++op) {
      const bool draining = op >= ops;
      const std::uint64_t kind = draining ? 5 : rng.Below(10);
      if (kind < 4) {
        const auto q = static_cast<QueueId>(rng.Below(cfg.queue_count));
        const IoRequest req = RandomRequest(rng, base);
        const std::uint64_t stamp = rng.Below(1000);
        const std::uint64_t key = rng.Below(3);
        base += CostOf(rng.Below(2), 50);
        EXPECT_EQ(got.TrySubmit(q, req, stamp, key),
                  want.TrySubmit(q, req, stamp, key));
      } else if (kind < 7 || draining) {
        std::vector<std::size_t> before(cfg.queue_count);
        for (QueueId q = 0; q < cfg.queue_count; ++q) {
          before[q] = want.PendingCompletions(q);
        }
        const bool stepped = want.Step();
        ASSERT_EQ(got.Step(), stepped);
        std::optional<QueueId> posted;
        for (QueueId q = 0; q < cfg.queue_count; ++q) {
          if (want.PendingCompletions(q) > before[q]) posted = q;
        }
        EXPECT_EQ(got.PostedQueue(), posted);
        // Draining: hosts reap whatever posted, until nothing can happen.
        if (draining) {
          for (QueueId q = 0; q < cfg.queue_count; ++q) {
            while (auto c = want.PopCompletion(q)) {
              std::optional<Completion> g = got.PopCompletion(q);
              ASSERT_TRUE(g.has_value());
              ExpectSameCompletion(*g, *c);
            }
            EXPECT_FALSE(got.PopCompletion(q).has_value());
          }
          if (!stepped) break;
        }
      } else {
        const auto q = static_cast<QueueId>(rng.Below(cfg.queue_count));
        std::optional<Completion> c = want.PopCompletion(q);
        std::optional<Completion> g = got.PopCompletion(q);
        ASSERT_EQ(g.has_value(), c.has_value());
        if (c) ExpectSameCompletion(*g, *c);
      }
      ExpectSameStats(got.Stats(), want.Stats());
      EXPECT_EQ(got.Stats().submit_calls, want.Stats().submit_calls);
      ExpectSamePairs(got, want);
      ASSERT_EQ(got.InFlight(), want.InFlight());
      ASSERT_EQ(got.Now(), want.Now());
      ASSERT_FALSE(testing::Test::HasFailure()) << "op " << op;
    }
    EXPECT_EQ(got.InFlight(), 0u);
    EXPECT_EQ(device.Digest(), ref_device.Digest());
    seen.sq_rejections += got.Stats().sq_rejections;
    seen.cq_stalls += got.Stats().cq_stalls;
    seen.read_retries += got.Stats().read_retries;
    seen.completed_error += got.Stats().completed_error;
    seen.lock_admin_ops += got.Stats().lock_admin_ops;
    seen.lock_rejections += got.Stats().lock_rejections;
  }
  EXPECT_GT(seen.sq_rejections, 0u);
  EXPECT_GT(seen.cq_stalls, 0u);
  EXPECT_GT(seen.read_retries, 0u);
  EXPECT_GT(seen.completed_error, 0u);
  EXPECT_GT(seen.lock_admin_ops, 0u);
  EXPECT_GT(seen.lock_rejections, 0u);
}

std::vector<wl::TenantSpec> RandomTenants(Rng& rng) {
  const std::size_t n = 1 + rng.Below(12);
  std::vector<wl::TenantSpec> tenants(n);
  for (std::size_t i = 0; i < n; ++i) {
    tenants[i].name = std::to_string(i);
    tenants[i].stamp_base = 1000 * (i + 1);
    const std::size_t count = rng.Chance(0.15) ? 0 : rng.Below(60);
    SimTime t = CostOf(rng.Below(5), 100);
    for (std::size_t k = 0; k < count; ++k) {
      t += CostOf(rng.Below(4), 100);
      tenants[i].requests.push_back(
          {t, rng.Below(64), 1 + static_cast<std::uint32_t>(rng.Below(2)),
           rng.Chance(0.6) ? IoMode::kWrite : IoMode::kRead});
    }
  }
  return tenants;
}

TEST(IoEngineDiffTest, DriverMatchesPerEventReference) {
  Rng rng(0xD21F);
  EngineStats seen;  // summed over trials: every path must be exercised
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::vector<wl::TenantSpec> tenants = RandomTenants(rng);
    const EngineConfig cfg = RandomConfig(rng);
    FlakyLaneDevice ref_device;
    FlakyLaneDevice device;
    ReferenceEngine ref_engine(ref_device, cfg);
    IoEngine engine(device, cfg);

    // Foreign traffic left unreaped before the run: the first round must
    // still find it.
    const std::size_t foreign = rng.Chance(0.3) ? rng.Below(4) : 0;
    for (std::size_t k = 0; k < foreign; ++k) {
      const IoRequest req{CostOf(k, 10), 7 * k, 1, IoMode::kWrite, 999};
      const auto q = static_cast<QueueId>(k % cfg.queue_count);
      EXPECT_EQ(engine.TrySubmit(q, req), ref_engine.TrySubmit(q, req));
    }
    for (std::size_t k = 0; k < 2 * foreign; ++k) {
      EXPECT_EQ(engine.Step(), ref_engine.Step());
    }

    const wl::MultiTenantReport want = ReferenceRun(tenants, ref_engine);
    wl::MultiTenantOptions opts;
    opts.sample_limit = 0;
    const wl::MultiTenantReport got =
        wl::MultiTenantDriver(tenants, opts).Run(engine);

    ASSERT_EQ(got.status, wl::MultiTenantStatus::kOk);
    EXPECT_EQ(got.end_time, std::max(want.end_time, got.first_submit_time));
    ExpectSameStats(engine.Stats(), ref_engine.Stats());
    ExpectSamePairs(engine, ref_engine);
    EXPECT_EQ(device.Digest(), ref_device.Digest());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const wl::TenantResult& a = got.tenants[i];
      const wl::TenantResult& b = want.tenants[i];
      EXPECT_EQ(a.submitted, b.submitted) << i;
      EXPECT_EQ(a.completed, b.completed) << i;
      EXPECT_EQ(a.errors, b.errors) << i;
      EXPECT_EQ(a.stall_events, b.stall_events) << i;
      EXPECT_EQ(a.latencies, b.latencies) << i;
      EXPECT_EQ(a.complete_times, b.complete_times) << i;
    }
    seen.sq_rejections += engine.Stats().sq_rejections;
    seen.cq_stalls += engine.Stats().cq_stalls;
    seen.read_retries += engine.Stats().read_retries;
  }
  EXPECT_GT(seen.sq_rejections, 0u);
  EXPECT_GT(seen.cq_stalls, 0u);
  EXPECT_GT(seen.read_retries, 0u);
}

/// Eight tenants, one per pair, each with a backlog the device cannot keep
/// up with: every pair spends the run full.
std::vector<wl::TenantSpec> SaturatingTenants() {
  std::vector<wl::TenantSpec> tenants(8);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].name = "host" + std::to_string(i);
    for (std::size_t k = 0; k < 400; ++k) {
      tenants[i].requests.push_back({CostOf(k, 10), 64 * i + k % 64, 1,
                                     k % 2 ? IoMode::kWrite : IoMode::kRead});
    }
  }
  return tenants;
}

TEST(IoEngineDiffTest, WorkCountersStayNearOnePerCommand) {
  EngineConfig cfg;
  cfg.queue_count = 8;
  cfg.queue.sq_depth = 32;
  cfg.max_read_retries = 0;

  FlakyLaneDevice ref_device;
  ReferenceEngine ref_engine(ref_device, cfg);
  ReferenceRun(SaturatingTenants(), ref_engine);
  FlakyLaneDevice device;
  IoEngine engine(device, cfg);
  wl::MultiTenantDriver(SaturatingTenants()).Run(engine);

  const EngineStats& s = engine.Stats();
  const EngineStats& r = ref_engine.Stats();
  ASSERT_EQ(s.dispatched, 3200u);
  ASSERT_EQ(s.dispatched, r.dispatched);
  ASSERT_EQ(s.sq_rejections, r.sq_rejections);
  ASSERT_GT(s.sq_rejections, 10 * s.dispatched);  // saturated: pairs sit full
  const std::uint64_t events = s.dispatched + s.completed_ok +
                               s.completed_error + s.read_retries;

  // One accepted call per command, plus one refused call per blocked
  // episode, against one refused call per pair per event before.
  EXPECT_LE(s.submit_calls, 2 * s.dispatched);
  EXPECT_GT(r.submit_calls, 10 * s.dispatched);
  // Arbitration looks at about one ready pair per event, against every
  // pair (and every eligible pair again on a dispatch) before.
  EXPECT_LE(s.pair_visits, events + events / 4);
  EXPECT_GE(r.pair_visits, cfg.queue_count * events);
}

}  // namespace
}  // namespace insider::io
