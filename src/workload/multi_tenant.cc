#include "workload/multi_tenant.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace insider::wl {

const char* MultiTenantStatusName(MultiTenantStatus status) {
  switch (status) {
    case MultiTenantStatus::kOk:
      return "ok";
    case MultiTenantStatus::kDuplicateNamespace:
      return "duplicate-namespace";
    case MultiTenantStatus::kZeroDepthQueue:
      return "zero-depth-queue";
  }
  return "?";
}

MultiTenantDriver::MultiTenantDriver(std::vector<TenantSpec> tenants,
                                     MultiTenantOptions options)
    : tenants_(std::move(tenants)), options_(options) {}

MultiTenantReport MultiTenantDriver::Run(io::IoEngine& engine) {
  const std::size_t n = tenants_.size();
  const std::size_t queues = engine.QueueCount();

  MultiTenantReport report;
  report.tenants.resize(n);
  report.first_submit_time = std::numeric_limits<SimTime>::max();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint64_t> blocks_written(n, 0);

  // Resolve each tenant's namespace id (0 = auto: index + 1) and the
  // attribution map. Shared queue pairs make the nsid the only way to tell
  // tenants' completions apart, so a collision is a hard, typed refusal —
  // not a release-mode silent mis-attribution.
  std::vector<std::uint32_t> ns_of(n, 0);
  std::unordered_map<std::uint32_t, std::size_t> tenant_of_ns;
  tenant_of_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantResult& r = report.tenants[i];
    r.name = tenants_[i].name;
    r.is_ransomware = tenants_[i].is_ransomware;
    ns_of[i] = tenants_[i].nsid != 0
                   ? tenants_[i].nsid
                   : static_cast<std::uint32_t>(i) + 1;
    r.nsid = ns_of[i];
    for (const IoRequest& req : tenants_[i].requests) {
      if (req.time < report.first_submit_time) {
        report.first_submit_time = req.time;
      }
    }
  }
  if (report.first_submit_time == std::numeric_limits<SimTime>::max()) {
    report.first_submit_time = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!tenant_of_ns.emplace(ns_of[i], i).second) {
      report.status = MultiTenantStatus::kDuplicateNamespace;
      report.end_time = report.first_submit_time;
      return report;
    }
  }
  // A zero-depth ring refuses every submission, so its tenants could never
  // drain: refuse the run instead of spinning on it.
  for (std::size_t q = 0; q < queues; ++q) {
    if (engine.Pair(static_cast<io::QueueId>(q)).sq().Capacity() == 0) {
      report.status = MultiTenantStatus::kZeroDepthQueue;
      report.end_time = report.first_submit_time;
      return report;
    }
  }

  const std::uint64_t dispatched_before = engine.Stats().dispatched;

  auto record = [&](TenantResult& r, const io::Completion& c) {
    ++r.completed;
    if (!c.ok) ++r.errors;
    r.latency_us.Add(static_cast<double>(c.Latency()));
    r.latencies.push_back(c.Latency());
    r.complete_times.push_back(c.complete_time);
    if (options_.sample_limit != 0 &&
        r.latencies.size() > options_.sample_limit) {
      r.latencies.pop_front();
      r.complete_times.pop_front();
      ++r.samples_dropped;
    }
    if (c.complete_time > r.last_complete_time) {
      r.last_complete_time = c.complete_time;
    }
  };

  // Host-phase pick structure: per queue pair, a min-heap over that pair's
  // tenants with requests left, keyed by (next due time, tenant index). The
  // global pick is the smallest head among the pairs in the pick, so a pick
  // costs O(those pairs + log tenants-per-pair) instead of a scan of every
  // tenant.
  struct Head {
    SimTime time;
    std::size_t tenant;
  };
  auto later = [](const Head& a, const Head& b) {
    return a.time != b.time ? a.time > b.time : a.tenant > b.tenant;
  };
  std::vector<std::vector<Head>> pair_heads(queues);
  std::size_t pending_tenants = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tenants_[i].requests.empty()) continue;
    pair_heads[i % queues].push_back({tenants_[i].requests.front().time, i});
    ++pending_tenants;
  }
  for (std::vector<Head>& heads : pair_heads) {
    std::make_heap(heads.begin(), heads.end(), later);
  }

  // Stall accounting. A refused submit blocks its pair: the ring is full,
  // and it stays full until the host reaps one of the pair's completions.
  // A stall is one refusal of the pair's head tenant per round (one engine
  // event) the pair spends full. Rather than retry the doomed submit every
  // round, the pair records the round it blocked in and is charged those
  // rounds in one addition when it reaps. The run ends only once every
  // tenant is drained, so no pair is still blocked then. Stalls touch
  // nothing but counters, so this leaves the submission order — the only
  // cross-pair effect — unchanged.
  std::uint64_t round = 0;
  // The round each pair blocked in; 0 = not blocked (rounds count from 1).
  std::vector<std::uint64_t> blocked_since(queues, 0);
  // Pairs that take part in the next pick: every pair in the first round,
  // then the pairs that reaped. A pair that reaped nothing is still full.
  std::vector<std::size_t> pick;
  for (std::size_t q = 0; q < queues; ++q) {
    if (!pair_heads[q].empty()) pick.push_back(q);
  }

  auto reap_queue = [&](std::size_t q) {
    if (engine.PendingCompletions(static_cast<io::QueueId>(q)) == 0) return;
    while (std::optional<io::Completion> c =
               engine.PopCompletion(static_cast<io::QueueId>(q))) {
      if (c->complete_time > report.end_time) {
        report.end_time = c->complete_time;
      }
      auto it = tenant_of_ns.find(c->request.nsid);
      if (it == tenant_of_ns.end()) continue;  // not ours (foreign traffic)
      record(report.tenants[it->second], *c);
    }
    if (blocked_since[q] == 0) return;
    const std::uint64_t missed = round - blocked_since[q];
    report.tenants[pair_heads[q].front().tenant].stall_events += missed;
    engine.ChargeRejections(static_cast<io::QueueId>(q), missed);
    blocked_since[q] = 0;
    pick.push_back(q);
  };
  auto reap_all = [&] {
    for (std::size_t q = 0; q < queues; ++q) reap_queue(q);
  };

  // Submit the head of pair `q`'s heap, or count its stall and block the
  // pair when the ring is full.
  auto submit_head = [&](std::size_t q) {
    std::vector<Head>& heads = pair_heads[q];
    const std::size_t best = heads.front().tenant;
    const TenantSpec& tenant = tenants_[best];
    TenantResult& r = report.tenants[best];
    IoRequest req = tenant.requests[cursor[best]];
    req.nsid = ns_of[best];  // the tenant's identity rides every header
    std::uint64_t stamp = tenant.stamp_base + blocks_written[best];
    if (!engine.TrySubmit(static_cast<io::QueueId>(q), req, stamp)) {
      ++r.stall_events;  // host stalls until a completion frees a slot
      blocked_since[q] = round;
      return;
    }
    ++r.submitted;
    if (req.mode == IoMode::kWrite) blocks_written[best] += req.length;
    std::pop_heap(heads.begin(), heads.end(), later);
    if (++cursor[best] < tenant.requests.size()) {
      heads.back().time = tenant.requests[cursor[best]].time;
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
      --pending_tenants;
    }
  };

  for (;;) {
    ++round;
    // Host phase: submissions flow in global time order — a repeated
    // min-pick across the (already sorted) streams. With tenants sharing a
    // pair this matters: letting one tenant burst its whole backlog into
    // the ring would park far-future commands in front of ring-mates'
    // earlier ones (SQs are FIFO) and manufacture queue wait the device
    // never caused. A full ring stalls the picked tenant and blocks that
    // pair until the device frees a slot; ties go to the lower index. Every
    // pair leaves the pick blocked or drained.
    while (!pick.empty()) {
      std::size_t best = 0;
      for (std::size_t k = 1; k < pick.size(); ++k) {
        if (later(pair_heads[pick[best]].front(),
                  pair_heads[pick[k]].front())) {
          best = k;
        }
      }
      const std::size_t q = pick[best];
      submit_head(q);
      if (blocked_since[q] != 0 || pair_heads[q].empty()) {
        pick[best] = pick.back();
        pick.pop_back();
      }
    }

    // Device phase: process one event — a dispatch (arbitrated) or a
    // completion posting — then reap the pair it posted to, so its stalled
    // tenants can make progress next round. The first round reaps every
    // pair: completions posted before the run are waiting there.
    if (!engine.Step()) {
      if (pending_tenants == 0 && engine.InFlight() == 0) break;
      // Stuck on full completion rings: reap and retry.
      reap_all();
      continue;
    }
    if (round == 1) {
      reap_all();
    } else if (std::optional<io::QueueId> q = engine.PostedQueue()) {
      reap_queue(*q);
    }
  }

  reap_all();
  report.total_dispatched = engine.Stats().dispatched - dispatched_before;
  // Empty-run semantics: no completion ever advanced end_time, so pin it to
  // the start of the run — the span is zero, not an unsigned underflow.
  if (report.end_time < report.first_submit_time) {
    report.end_time = report.first_submit_time;
  }
  return report;
}

}  // namespace insider::wl
