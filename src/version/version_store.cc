#include "version/version_store.h"

#include <algorithm>
#include <cassert>

namespace insider::version {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
}  // namespace

bool VersionStore::Archive(Lba lba, nand::Ppa ppa, SimTime written_at,
                           bool tombstone, SimTime now,
                           const ReleaseFn& release) {
  const RangePolicy* policy = policies_ ? policies_->Find(lba) : nullptr;
  assert(policy != nullptr);  // the FTL only archives protected LBAs
  if (policy == nullptr) return false;

  Chain& chain = chains_[lba];
  // Per-LBA versions arrive oldest-first (the ring releases in displacement
  // order, which per LBA is chronological); insert from the back so equal
  // timestamps keep arrival order.
  auto pos = chain.end();
  while (pos != chain.begin() && std::prev(pos)->written_at > written_at) {
    --pos;
  }
  const VersionRecord rec{written_at, tombstone ? nand::kInvalidPpa : ppa,
                          tombstone};
  chain.insert(pos, rec);
  NoteRecordAdded(lba, rec);
  if (m_archived_ != nullptr) m_archived_->Inc();

  bool guarded = false;
  std::size_t pruned =
      PruneChain(lba, chain, *policy, now, release, rec.ppa, &guarded);
  if (m_pruned_ != nullptr && pruned > 0) {
    m_pruned_->Inc(static_cast<std::uint64_t>(pruned));
  }
  if (chain.empty()) {
    chains_.erase(lba);
  } else {
    next_due_ = std::min(next_due_, NextExpiry(chain, *policy));
  }
  RefreshGauges();
  // A tombstone pins no page; a version pruned on arrival never did.
  return !tombstone && !guarded;
}

void VersionStore::PruneExpired(SimTime now, const ReleaseFn& release) {
  if (now < next_due_) return;
  next_due_ = kNever;
  std::size_t pruned_pages = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    const RangePolicy* policy = policies_->Find(it->first);
    assert(policy != nullptr);
    pruned_pages += PruneChain(it->first, it->second, *policy, now, release,
                               nand::kInvalidPpa, nullptr);
    if (it->second.empty()) {
      it = chains_.erase(it);
    } else {
      next_due_ = std::min(next_due_, NextExpiry(it->second, *policy));
      ++it;
    }
  }
  if (m_pruned_ != nullptr && pruned_pages > 0) {
    // Counts freed pages; record drops, tombstones included, are tracked
    // by NoteRecordDropped.
    m_pruned_->Inc(static_cast<std::uint64_t>(pruned_pages));
  }
  RefreshGauges();
}

std::size_t VersionStore::EvictOldest(std::size_t max_pages,
                                      const ReleaseFn& release) {
  std::size_t freed = 0;
  while (freed < max_pages && !chains_.empty()) {
    // Globally oldest retained record; ties resolve to the lowest LBA
    // (std::map iteration order) for determinism. This is the rare
    // space-pressure path, so the linear scan is acceptable.
    auto best = chains_.begin();
    for (auto it = std::next(chains_.begin()); it != chains_.end(); ++it) {
      if (it->second.front().written_at < best->second.front().written_at) {
        best = it;
      }
    }
    freed += DropFront(best->first, best->second, release, nand::kInvalidPpa,
                       nullptr);
    if (best->second.empty()) chains_.erase(best);
  }
  if (m_evicted_ != nullptr && freed > 0) {
    m_evicted_->Inc(static_cast<std::uint64_t>(freed));
  }
  RefreshGauges();
  return freed;
}

bool VersionStore::Relocate(Lba lba, nand::Ppa from, nand::Ppa to) {
  auto it = chains_.find(lba);
  if (it == chains_.end()) return false;
  auto rec = FindPage(it->second, from);
  if (rec == it->second.end()) return false;
  rec->ppa = to;
  return true;
}

bool VersionStore::DropPpa(Lba lba, nand::Ppa ppa) {
  auto it = chains_.find(lba);
  if (it == chains_.end()) return false;
  Chain& chain = it->second;
  auto rec = FindPage(chain, ppa);
  if (rec == chain.end()) return false;
  NoteRecordDropped(lba, *rec);
  chain.erase(rec);
  if (chain.empty()) chains_.erase(it);
  if (m_lost_ != nullptr) m_lost_->Inc();
  RefreshGauges();
  return true;
}

void VersionStore::Clear() {
  chains_.clear();
  record_count_ = 0;
  page_count_ = 0;
  std::fill(per_range_records_.begin(), per_range_records_.end(),
            std::size_t{0});
  next_due_ = kNever;
  RefreshGauges();
}

VersionStore::Snapshot VersionStore::SnapshotState() const {
  Snapshot snap;
  snap.chains = chains_;
  snap.record_count = record_count_;
  snap.page_count = page_count_;
  snap.per_range_records = per_range_records_;
  snap.next_due = next_due_;
  return snap;
}

void VersionStore::RestoreState(const Snapshot& snapshot) {
  chains_ = snapshot.chains;
  record_count_ = snapshot.record_count;
  page_count_ = snapshot.page_count;
  per_range_records_ = snapshot.per_range_records;
  next_due_ = snapshot.next_due;
  RefreshGauges();
}

const std::vector<VersionRecord>* VersionStore::ChainOf(Lba lba) const {
  auto it = chains_.find(lba);
  return it == chains_.end() ? nullptr : &it->second;
}

void VersionStore::ForEachChain(
    const std::function<void(Lba, const std::vector<VersionRecord>&)>& fn)
    const {
  for (const auto& [lba, chain] : chains_) fn(lba, chain);
}

void VersionStore::AttachMetrics(obs::MetricsRegistry* registry,
                                 std::uint64_t page_size) {
  if (registry == nullptr) return;
  page_size_ = page_size;
  m_archived_ = &registry->GetCounter("version.archived_total");
  m_pruned_ = &registry->GetCounter("version.pruned_total");
  m_evicted_ = &registry->GetCounter("version.evicted_total");
  m_lost_ = &registry->GetCounter("version.lost_total");
  m_versions_ = &registry->GetGauge("version.versions_retained");
  m_store_bytes_ = &registry->GetGauge("version.store_bytes");
  m_dram_bytes_ = &registry->GetGauge("version.dram_bytes");
  m_range_versions_.clear();
  if (policies_ != nullptr) {
    for (std::size_t i = 0; i < policies_->RangeCount(); ++i) {
      m_range_versions_.push_back(&registry->GetGauge(
          "version.range" + std::to_string(i) + "_versions"));
    }
  }
  RefreshGauges();
}

std::size_t VersionStore::DropFront(Lba lba, Chain& chain,
                                    const ReleaseFn& release,
                                    nand::Ppa guard_ppa, bool* guarded) {
  assert(!chain.empty());
  const VersionRecord rec = chain.front();
  chain.erase(chain.begin());
  NoteRecordDropped(lba, rec);
  if (rec.tombstone) return 0;
  if (rec.ppa == guard_ppa) {
    // The page being archived right now was pruned before the FTL marked it
    // archived; tell Archive() to report it unkept instead of releasing.
    if (guarded != nullptr) *guarded = true;
    return 0;
  }
  release(rec.ppa);
  return 1;
}

std::size_t VersionStore::PruneChain(Lba lba, Chain& chain,
                                     const RangePolicy& policy, SimTime now,
                                     const ReleaseFn& release,
                                     nand::Ppa guard_ppa, bool* guarded) {
  std::size_t freed = 0;
  while (chain.size() > policy.keep_versions &&
         chain.front().written_at <= now - policy.keep_window) {
    freed += DropFront(lba, chain, release, guard_ppa, guarded);
  }
  return freed;
}

SimTime VersionStore::NextExpiry(const Chain& chain,
                                 const RangePolicy& policy) const {
  if (chain.size() <= policy.keep_versions) return kNever;
  // The front becomes prunable once its age reaches keep_window.
  return chain.front().written_at + policy.keep_window;
}

VersionStore::Chain::iterator VersionStore::FindPage(Chain& chain,
                                                    nand::Ppa ppa) {
  return std::find_if(chain.begin(), chain.end(),
                      [ppa](const VersionRecord& r) {
                        return !r.tombstone && r.ppa == ppa;
                      });
}

void VersionStore::NoteRecordAdded(Lba lba, const VersionRecord& rec) {
  ++record_count_;
  if (!rec.tombstone) ++page_count_;
  if (policies_ == nullptr) return;
  std::size_t idx = policies_->IndexOf(lba);
  if (idx == static_cast<std::size_t>(-1)) return;
  if (per_range_records_.size() < policies_->RangeCount()) {
    per_range_records_.resize(policies_->RangeCount(), 0);
  }
  ++per_range_records_[idx];
}

void VersionStore::NoteRecordDropped(Lba lba, const VersionRecord& rec) {
  assert(record_count_ > 0);
  --record_count_;
  if (!rec.tombstone) {
    assert(page_count_ > 0);
    --page_count_;
  }
  if (policies_ == nullptr) return;
  std::size_t idx = policies_->IndexOf(lba);
  if (idx == static_cast<std::size_t>(-1) ||
      idx >= per_range_records_.size()) {
    return;
  }
  assert(per_range_records_[idx] > 0);
  --per_range_records_[idx];
}

void VersionStore::RefreshGauges() {
  if (m_versions_ == nullptr) return;
  m_versions_->Set(static_cast<double>(record_count_));
  m_store_bytes_->Set(static_cast<double>(StoreBytes(page_size_)));
  m_dram_bytes_->Set(static_cast<double>(DramBytes()));
  for (std::size_t i = 0; i < m_range_versions_.size(); ++i) {
    std::size_t n = i < per_range_records_.size() ? per_range_records_[i] : 0;
    m_range_versions_[i]->Set(static_cast<double>(n));
  }
}

}  // namespace insider::version
