#include "ftl/page_ftl.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "ftl/invariant_auditor.h"

namespace insider::ftl {

#ifdef INSIDER_AUDIT
namespace {

/// Audit every Nth mutation. One audit costs O(physical pages), so a fixed
/// stride of 1 would make audited workloads O(ops x pages) — fine for the
/// unit-test geometries, quadratic pain for the GB-scale detection runs.
/// Default: every mutation on devices up to 2048 pages, then scaling with
/// device size so the amortized audit cost stays near one page-check per
/// mutation. INSIDER_AUDIT_STRIDE overrides (any positive integer).
std::uint64_t AuditStride(std::uint64_t total_pages) {
  static const std::uint64_t env_stride = [] {
    const char* env = std::getenv("INSIDER_AUDIT_STRIDE");
    if (env == nullptr) return std::uint64_t{0};
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    return end == env ? std::uint64_t{0} : std::uint64_t{v};
  }();
  if (env_stride != 0) return env_stride;
  return std::max<std::uint64_t>(1, total_pages / 2048);
}

}  // namespace

bool PageFtl::AuditHooksEnabled() { return true; }

PageFtl::MutationAudit::~MutationAudit() {
  if (--ftl_.audit_depth_ != 0) return;  // audit only the outermost mutation
  std::uint64_t stride = AuditStride(ftl_.config_.geometry.TotalPages());
  if (++ftl_.audit_tick_ % stride != 0) return;
  AuditReport report = InvariantAuditor::Audit(ftl_);
  if (report.ok()) return;
  INSIDER_LOG_ERROR << "INSIDER_AUDIT failure after " << op_ << ":\n"
                    << report.Diff();
  std::abort();
}
#else
bool PageFtl::AuditHooksEnabled() { return false; }
#endif

void PageFtl::JournalAppend(const JournalRecord& rec) {
  if (!journal_.Enabled() || replaying_) return;
  journal_.Append(rec);
  ++stats_.journal_records_appended;
}

void PageFtl::JournalFlushBatches(SimTime now) {
  if (journal_.PendingCount() < config_.checkpoint.journal_records_per_page) {
    return;  // durability lags at most one page batch behind DRAM
  }
  SimTime complete = now;
  journal_.Flush(now, &complete, &stats_);
}

bool PageFtl::JournalFlushAll(SimTime& now) {
  if (!journal_.Enabled() || replaying_) return true;
  if (journal_.PendingCount() == 0) return true;
  SimTime complete = now;
  bool ok = journal_.Flush(now, &complete, &stats_);
  now = std::max(now, complete);
  return ok;
}

bool PageFtl::FlushJournal(SimTime now) { return JournalFlushAll(now); }

void PageFtl::MaybeCheckpoint(SimTime now) {
  if (!checkpoints_.Enabled() || replaying_) return;
  // Pre-emptive trigger: commit before the active journal region can
  // overflow, so the O(Δ) fast path stays available under write pressure.
  if (journal_.UsageFraction() < 0.7) return;
  TakeCheckpoint(now);
}

SimTime PageFtl::TakeCheckpoint(SimTime now) {
  if (!checkpoints_.Enabled() || replaying_) return now;
  MutationAudit audit_scope(*this, "TakeCheckpoint");
  JournalBatchScope journal_scope(*this, now);
  SimTime complete = now;
  if (checkpoints_.Commit(BuildSnapshot(), now, &complete, &stats_)) {
    // The committed checkpoint supersedes every journal record: switch the
    // journal to the new epoch's region and drop the covered records.
    journal_.StartEpoch(checkpoints_.Epoch(), complete, &complete);
    obs::EmitInstant(tracer_, "ftl.checkpoint", "ftl", 0, complete,
                     static_cast<std::int64_t>(checkpoints_.Epoch()), "epoch");
  }
  return complete;
}

FtlSnapshot PageFtl::BuildSnapshot() const {
  FtlSnapshot snap;
  snap.write_seq = write_seq_;
  snap.l2p = l2p_.Clone();
  snap.p2l = p2l_.Clone();
  snap.page_state = page_state_.Clone();
  snap.block_counters = block_counters_;
  snap.queue = queue_;
  snap.trim_journal.reserve(trim_journal_.size());
  for (const TrimRecord& r : trim_journal_) {
    snap.trim_journal.emplace_back(r.time, r.lba);
  }
  snap.store = store_.SnapshotState();
  snap.last_release_horizon = last_release_horizon_;
  snap.valid_pages = valid_pages_;
  snap.retained_pages = retained_pages_;
  snap.archived_pages = archived_pages_;
  return snap;
}

void PageFtl::RestoreFromSnapshot(const FtlSnapshot& snap) {
  write_seq_ = snap.write_seq;
  l2p_.CloneFrom(snap.l2p);
  p2l_.CloneFrom(snap.p2l);
  page_state_.CloneFrom(snap.page_state);
  block_counters_ = snap.block_counters;
  queue_ = snap.queue;
  trim_journal_.clear();
  for (const auto& [time, lba] : snap.trim_journal) {
    trim_journal_.push_back({time, lba});
  }
  store_.RestoreState(snap.store);
  last_release_horizon_ = snap.last_release_horizon;
  valid_pages_ = snap.valid_pages;
  retained_pages_ = snap.retained_pages;
  archived_pages_ = snap.archived_pages;
}

namespace {

/// `config` with its geometry emptied when `status` rejected it, so no table
/// or block array is built for a shape the FTL cannot address.
FtlConfig UsableConfig(FtlConfig config, const nand::GeometryError& status) {
  if (!status.ok()) {
    config.geometry = nand::Geometry{.channels = 0,
                                     .ways = 0,
                                     .blocks_per_chip = 0,
                                     .pages_per_block = 0,
                                     .page_size = config.geometry.page_size};
  }
  return config;
}

}  // namespace

PageFtl::PageFtl(const FtlConfig& config)
    : geometry_error_(nand::ValidateGeometry(config.geometry)),
      config_(UsableConfig(config, geometry_error_)),
      nand_(config_.geometry, config.latency, config.errors,
            config.error_seed),
      queue_(config.recovery_queue_capacity),
      allocation_(MakeAllocationPolicy(config)),
      victim_(MakeVictimPolicy(config)),
      retention_error_(ValidateRetentionConfig(config)),
      retention_window_(retention_error_.ok() ? config.retention_window
                                              : Seconds(10)),
      // A config the validator rejects must not half-enable versioning: the
      // store only receives the policy table when the config is sound.
      store_(retention_error_.ok() ? config.range_policies : nullptr),
      view_(config_.geometry, nand_, victims_, block_counters_,
            active_block_per_chip_, free_blocks_by_chip_, block_health_,
            ready_chips_),
      gc_(*this) {
  if (!retention_error_.ok()) {
    // A config that would retain nothing defeats the device's whole purpose;
    // refuse it loudly and run with the paper's default window instead.
    INSIDER_LOG_ERROR << "rejected retention config ("
                      << ToString(retention_error_.issue) << ": "
                      << retention_error_.detail
                      << "); falling back to the 10 s window";
  }
  if (!geometry_error_.ok()) {
    INSIDER_LOG_ERROR << "rejected geometry ("
                      << nand::ToString(geometry_error_.issue) << ": "
                      << geometry_error_.detail << "); exporting no LBAs";
  }
  nand_.SetFaultPlan(config_.fault_plan);
  const nand::Geometry& geo = config_.geometry;
  victims_.Reset(static_cast<std::uint32_t>(geo.TotalBlocks()),
                 geo.pages_per_block);
  std::uint64_t reserved_pages = 0;
  if (config_.checkpoint.enabled && geometry_error_.ok()) {
    // Reserve the metadata stripe: two checkpoint buffers, then two journal
    // regions, round-robined across chips from the top of each chip's block
    // range (the i-th reserved block is chip i % chips, block index
    // blocks_per_chip - 1 - i / chips) so metadata programs spread over the
    // channels like data does.
    const CheckpointConfig& ck = config_.checkpoint;
    const std::uint32_t counts[4] = {
        ck.checkpoint_blocks_per_buffer, ck.checkpoint_blocks_per_buffer,
        ck.journal_blocks_per_region, ck.journal_blocks_per_region};
    std::vector<std::uint64_t> groups[4];
    std::uint32_t i = 0;
    for (std::uint32_t g = 0; g < 4; ++g) {
      for (std::uint32_t k = 0; k < counts[g]; ++k, ++i) {
        std::uint32_t chip = i % geo.TotalChips();
        std::uint32_t index = geo.blocks_per_chip - 1 - i / geo.TotalChips();
        std::uint64_t id =
            static_cast<std::uint64_t>(chip) * geo.blocks_per_chip + index;
        groups[g].push_back(id);
        metadata_blocks_.push_back(id);
      }
    }
    assert(metadata_blocks_.size() < geo.TotalBlocks());
    nand_.SetMetadataBlocks(metadata_blocks_);
    checkpoints_ = CheckpointStore(&nand_, std::move(groups[0]),
                                   std::move(groups[1]));
    journal_ = MappingJournal(&nand_, std::move(groups[2]),
                              std::move(groups[3]),
                              ck.journal_records_per_page);
    reserved_pages = static_cast<std::uint64_t>(metadata_blocks_.size()) *
                     geo.pages_per_block;
  }
  exported_lbas_ = static_cast<Lba>(
      static_cast<double>(geo.TotalPages() - reserved_pages) *
      config_.exported_fraction);
  l2p_.Assign(exported_lbas_);
  p2l_.Assign(geo.TotalPages());
  page_state_.Assign(geo.TotalPages(), PageState::kFree);
  block_counters_.assign(geo.TotalBlocks(), BlockCounters{});
  block_health_.assign(geo.TotalBlocks(), BlockHealth::kHealthy);
  free_blocks_by_chip_.resize(geo.TotalChips());
  active_block_per_chip_.assign(geo.TotalChips(), kNoActiveBlock);
  // Push each chip's blocks in reverse so pop_back hands out block 0 first;
  // ordering is only cosmetic but keeps traces easy to read.
  for (std::uint32_t chip = 0; chip < geo.TotalChips(); ++chip) {
    auto& pool = free_blocks_by_chip_[chip];
    pool.reserve(geo.blocks_per_chip);
    for (std::uint32_t b = geo.blocks_per_chip; b-- > 0;) {
      std::uint32_t id = chip * geo.blocks_per_chip + b;
      if (nand_.IsMetadataBlock(id)) continue;
      pool.push_back(id);
    }
  }
  free_block_count_ = geo.TotalBlocks() - metadata_blocks_.size();
  RefreshAllChipsReady();
}

void PageFtl::SetAllocationPolicy(std::unique_ptr<AllocationPolicy> policy) {
  assert(policy);
  allocation_ = std::move(policy);
}

void PageFtl::SetVictimPolicy(std::unique_ptr<VictimPolicy> policy) {
  assert(policy);
  victim_ = std::move(policy);
}

void PageFtl::RefreshVictim(std::uint32_t block_id) {
  const nand::Block& blk = nand_.BlockAt(block_id);
  if (blk.IsFull() && !view_.IsActive(block_id) &&
      block_health_[block_id] == BlockHealth::kHealthy &&
      !nand_.IsMetadataBlock(block_id)) {
    victims_.Place(block_id, block_counters_[block_id].Movable(),
                   static_cast<std::uint32_t>(blk.EraseCount()));
  } else {
    victims_.Remove(block_id);
  }
}

void PageFtl::RebuildVictimIndex() {
  victims_.Clear();
  const std::uint32_t total =
      static_cast<std::uint32_t>(config_.geometry.TotalBlocks());
  for (std::uint32_t b = 0; b < total; ++b) RefreshVictim(b);
}

void PageFtl::RefreshChipReady(std::uint32_t chip) {
  std::uint64_t& word = ready_chips_[chip / 64];
  const std::uint64_t bit = std::uint64_t{1} << (chip % 64);
  word = view_.ChipCanAllocate(chip) ? (word | bit) : (word & ~bit);
}

void PageFtl::RefreshAllChipsReady() {
  const std::uint32_t chips = config_.geometry.TotalChips();
  ready_chips_.assign((chips + 63) / 64, 0);
  for (std::uint32_t chip = 0; chip < chips; ++chip) RefreshChipReady(chip);
}

nand::Ppa PageFtl::AllocatePage() {
  const nand::Geometry& geo = config_.geometry;
  std::optional<std::uint32_t> chip = allocation_->NextChip(view_);
  if (!chip) return nand::kInvalidPpa;
  std::uint32_t& active = active_block_per_chip_[*chip];
  if (active == kNoActiveBlock || nand_.BlockAt(active).IsFull()) {
    auto& pool = free_blocks_by_chip_[*chip];
    assert(!pool.empty());  // ChipCanAllocate guaranteed a free block
    const std::uint32_t closed = active;
    active = pool.back();
    pool.pop_back();
    --free_block_count_;
    // The chip's ready bit stays set: its new frontier has room.
    // The full block just stopped being a frontier: GC may now take it.
    if (closed != kNoActiveBlock) RefreshVictim(closed);
  }
  nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(active);
  return geo.MakePpa(addr.chip, addr.block,
                     nand_.BlockAt(active).WritePointer());
}

void PageFtl::RecycleBlock(std::uint32_t block_id) {
  const std::uint32_t chip = nand_.Decoder().ChipOfBlock(block_id);
  free_blocks_by_chip_[chip].push_back(block_id);
  ++free_block_count_;
  RefreshChipReady(chip);
}

void PageFtl::ReleaseBackup(const BackupEntry& entry, SimTime now) {
  assert(page_state_.Get(entry.old_ppa) == PageState::kRetained);
  const std::uint32_t block_id = nand_.Decoder().BlockIdOf(entry.old_ppa);
  BlockCounters& info = block_counters_[block_id];
  assert(info.retained > 0);
  --info.retained;
  --retained_pages_;
  if (store_.Enabled() && store_.Protected(entry.lba) &&
      ArchiveBackup(entry, now)) {
    // The page is now an archived version: it stays on NAND, and its P2L
    // slot trades the entry id for the LBA so GC relocation and the
    // version-store checks find it.
    p2l_.Set(entry.old_ppa, entry.lba);
  } else {
    page_state_.Set(entry.old_ppa, PageState::kInvalid);
    p2l_.Set(entry.old_ppa, kInvalidLba);
  }
  // Either way re-key the block once its counters have settled (the archive
  // path can prune other pages of the same block on the way).
  RefreshVictim(block_id);
}

bool PageFtl::ArchiveBackup(const BackupEntry& entry, SimTime now) {
  const std::optional<nand::PageView> d = RawPage(entry.old_ppa);
  if (!d.has_value()) return false;  // page unreadable; nothing to archive
  auto on_prune = [this](nand::Ppa p) {
    ReleaseArchived(p);
    ++stats_.archived_pruned;
  };
  ++stats_.archived_versions;
  if (d->oob.tombstone) {
    // A trimmed state is a version too — the chain records it so rollback
    // can reproduce the deletion — but it has no payload to pin: the
    // tombstone page is freed like an unprotected release. (This makes
    // tombstone chain records best-effort across power loss; data versions
    // are the crash-exact substrate. DESIGN.md §11.)
    store_.Archive(entry.lba, entry.old_ppa, d->oob.written_at,
                   /*tombstone=*/true, now, on_prune);
    return false;
  }
  if (!store_.Archive(entry.lba, entry.old_ppa, d->oob.written_at,
                      /*tombstone=*/false, now, on_prune)) {
    ++stats_.archived_pruned;  // pruned on arrival (already out of policy)
    return false;
  }
  page_state_.Set(entry.old_ppa, PageState::kArchived);
  ++block_counters_[nand_.Decoder().BlockIdOf(entry.old_ppa)].archived;
  ++archived_pages_;
  return true;
}

void PageFtl::ReleaseArchived(nand::Ppa ppa) {
  assert(page_state_.Get(ppa) == PageState::kArchived);
  page_state_.Set(ppa, PageState::kInvalid);
  const std::uint32_t block_id = nand_.Decoder().BlockIdOf(ppa);
  BlockCounters& info = block_counters_[block_id];
  assert(info.archived > 0);
  --info.archived;
  --archived_pages_;
  p2l_.Set(ppa, kInvalidLba);
  RefreshVictim(block_id);
}

std::optional<nand::PageView> PageFtl::RawPage(nand::Ppa ppa) const {
  return nand_.PeekPage(ppa);
}

void PageFtl::ReleaseDue(SimTime now) {
  MutationAudit audit_scope(*this, "ReleaseExpired");
  JournalBatchScope journal_scope(*this, now);
  const std::size_t ring_before = queue_.Size();
  const std::size_t trims_before = trim_journal_.size();
  const std::size_t store_before = store_.VersionCount();
  SimTime horizon = now - retention_window_;
  last_release_horizon_ = std::max(last_release_horizon_, horizon);
  queue_.ReleaseUpTo(horizon, [this, now](const BackupEntry& e) {
    ReleaseBackup(e, now);
    ++stats_.retained_released;
  });
  // Age archived chains against their range policies (amortized O(1): the
  // store tracks the earliest possible expiry).
  if (store_.Enabled()) {
    store_.PruneExpired(now, [this](nand::Ppa p) {
      ReleaseArchived(p);
      ++stats_.archived_pruned;
    });
  }
  // Tombstones age out with the window too: once the trim can no longer be
  // rolled back there is nothing left to persist, so the page stops being a
  // current mapping and becomes reclaimable garbage. A journal entry whose
  // LBA was since rewritten (the mapping no longer points at a tombstone)
  // is simply stale — the rewrite already retired the tombstone page.
  while (!trim_journal_.empty() && trim_journal_.front().time <= horizon) {
    TrimRecord rec = trim_journal_.front();
    trim_journal_.pop_front();
    // Protected LBAs keep their tombstone mapped past the window: archived
    // history outlives the ring, and dropping the tombstone would let a
    // post-crash rebuild resurrect an archived version as current. Costs
    // one pinned page per trimmed protected LBA.
    if (store_.Enabled() && store_.Protected(rec.lba)) continue;
    nand::Ppa ppa = l2p_.Get(rec.lba);
    if (ppa != nand::kInvalidPpa && IsTombstone(ppa)) {
      MarkInvalid(ppa);
      l2p_.Set(rec.lba, nand::kInvalidPpa);
    }
  }
  // One record re-runs this whole pass at replay (deterministic given the
  // replayed state); appended only when it changed something, so quiescent
  // I/O does not bloat the journal.
  if (queue_.Size() != ring_before || trim_journal_.size() != trims_before ||
      store_.VersionCount() != store_before) {
    JournalAppend({JournalOpKind::kRelease, /*flag=*/false, 0,
                   nand::kInvalidPpa, nand::kInvalidPpa, 0, now, 0});
  }
}

void PageFtl::MarkInvalid(nand::Ppa ppa) {
  assert(page_state_.Get(ppa) == PageState::kValid);
  page_state_.Set(ppa, PageState::kInvalid);
  const std::uint32_t block_id = nand_.Decoder().BlockIdOf(ppa);
  BlockCounters& info = block_counters_[block_id];
  assert(info.valid > 0);
  --info.valid;
  --valid_pages_;
  p2l_.Set(ppa, kInvalidLba);
  RefreshVictim(block_id);
}

void PageFtl::Retire(Lba lba, nand::Ppa old_ppa, SimTime now) {
  if (!config_.delayed_deletion) {
    MarkInvalid(old_ppa);
    return;
  }
  assert(page_state_.Get(old_ppa) == PageState::kValid);
  page_state_.Set(old_ppa, PageState::kRetained);
  BlockCounters& info = block_counters_[nand_.Decoder().BlockIdOf(old_ppa)];
  --info.valid;
  ++info.retained;
  --valid_pages_;
  ++retained_pages_;
  PushBackup(lba, old_ppa, now, now);
}

void PageFtl::PushBackup(Lba lba, nand::Ppa old_ppa, SimTime displaced_at,
                         SimTime now) {
  RecoveryQueue::Pushed pushed = queue_.Push(lba, old_ppa, displaced_at);
  p2l_.Set(old_ppa, pushed.id);
  if (queue_.Size() > queue_high_water_) {
    queue_high_water_ = queue_.Size();
    if (queue_high_water_gauge_ != nullptr) {
      queue_high_water_gauge_->Set(static_cast<double>(queue_high_water_));
    }
  }
  if (pushed.evicted) {
    ReleaseBackup(*pushed.evicted, now);
    ++stats_.queue_evictions;
  }
}

bool PageFtl::MovePage(nand::Ppa src, nand::Ppa dst) {
  const PageState st = page_state_.Get(src);
  // The LBA, or a retained page's entry id; the destination inherits it.
  const std::uint64_t tag = p2l_.Get(src);
  BlockCounters& src_info = block_counters_[nand_.Decoder().BlockIdOf(src)];
  BlockCounters& dst_info = block_counters_[nand_.Decoder().BlockIdOf(dst)];
  switch (st) {
    case PageState::kValid:
      if (tag == kInvalidLba) return false;
      l2p_.Set(tag, dst);
      --src_info.valid;
      ++dst_info.valid;
      break;
    case PageState::kRetained:
      if (!queue_.Relocate(QueueIdOf(src), src, dst)) return false;
      --src_info.retained;
      ++dst_info.retained;
      break;
    case PageState::kArchived:
      if (!store_.Relocate(tag, src, dst)) return false;
      --src_info.archived;
      ++dst_info.archived;
      break;
    default:
      return false;
  }
  page_state_.Set(dst, st);
  p2l_.Set(dst, tag);
  page_state_.Set(src, PageState::kInvalid);
  p2l_.Set(src, kInvalidLba);
  return true;
}

std::size_t PageFtl::DropPage(nand::Ppa src) {
  const PageState st = page_state_.Get(src);
  BlockCounters& info = block_counters_[nand_.Decoder().BlockIdOf(src)];
  std::size_t dropped_records = 0;
  switch (st) {
    case PageState::kValid:
      if (Lba lba = p2l_.Get(src); lba != kInvalidLba) {
        l2p_.Set(lba, nand::kInvalidPpa);
      }
      --info.valid;
      --valid_pages_;
      break;
    case PageState::kRetained:
      if (queue_.Drop(QueueIdOf(src), src)) {
        --info.retained;
        --retained_pages_;
      }
      break;
    case PageState::kArchived:
      if (store_.DropPpa(p2l_.Get(src), src)) dropped_records = 1;
      --info.archived;
      --archived_pages_;
      break;
    default:
      assert(false && "DropPage on a page that holds no version");
      break;
  }
  page_state_.Set(src, PageState::kInvalid);
  p2l_.Set(src, kInvalidLba);
  return dropped_records;
}

void PageFtl::MapVersion(Lba lba, nand::Ppa ppa, SimTime displaced_at) {
  const nand::Ppa old = l2p_.Get(lba);
  if (old != nand::kInvalidPpa) Retire(lba, old, displaced_at);
  l2p_.Set(lba, ppa);
  p2l_.Set(ppa, lba);
  page_state_.Set(ppa, PageState::kValid);
  ++block_counters_[nand_.Decoder().BlockIdOf(ppa)].valid;
  ++valid_pages_;
}

void PageFtl::ClearRetiredBlock(std::uint32_t block_id) {
  const nand::Geometry& geo = config_.geometry;
  nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(block_id);
  const nand::Block& blk = nand_.BlockAt(block_id);
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    nand::Ppa ppa = geo.MakePpa(addr.chip, addr.block, p);
    page_state_.Set(ppa,
                    blk.IsProgrammed(p) ? PageState::kBad : PageState::kFree);
    p2l_.Set(ppa, kInvalidLba);
  }
  block_counters_[block_id] = BlockCounters{};
}

nand::Ppa PageFtl::ProgramWithRedrive(nand::PageView page, SimTime& now) {
  for (;;) {
    nand::Ppa ppa = AllocatePage();
    if (ppa == nand::kInvalidPpa) return nand::kInvalidPpa;
    page.oob.seq = ++write_seq_;
    nand::NandResult pr = nand_.ProgramPage(ppa, page, now);
    now = pr.complete_time;
    // The program (or the page it burned) may have filled the frontier.
    RefreshChipReady(nand_.Decoder().ChipOf(ppa));
    // The block is its chip's frontier, so it cannot be a GC candidate yet:
    // the victim index picks it up when allocation moves off it.
    if (pr.ok()) return ppa;
    if (pr.status != nand::NandStatus::kProgramFail) {
      // Sequencing violation, not a media fault — surface it as frontier
      // exhaustion rather than corrupting mapping state.
      return nand::kInvalidPpa;
    }
    // The attempt burned its page: record it, close the block as a write
    // frontier, queue it for retirement, and re-drive on a fresh frontier.
    ++stats_.program_fails;
    ++stats_.write_redrives;
    obs::EmitInstant(tracer_, "ftl.redrive", "ftl", 0, now,
                     static_cast<std::int64_t>(ppa), "burned_ppa");
    page_state_.Set(ppa, PageState::kBad);
    MarkPendingRetire(nand_.Decoder().BlockIdOf(ppa));
    JournalAppend({JournalOpKind::kBurn, /*flag=*/false, 0, ppa,
                   nand::kInvalidPpa, write_seq_, now, 0});
  }
}

void PageFtl::MarkPendingRetire(std::uint32_t block_id) {
  if (block_health_[block_id] != BlockHealth::kHealthy) return;
  block_health_[block_id] = BlockHealth::kPendingRetire;
  pending_retire_.push_back(block_id);
  ++out_of_service_blocks_;
  const std::uint32_t chip = nand_.Decoder().ChipOfBlock(block_id);
  if (active_block_per_chip_[chip] == block_id) {
    active_block_per_chip_[chip] = kNoActiveBlock;
    RefreshChipReady(chip);
  }
  RefreshVictim(block_id);
}

void PageFtl::RetireBlock(std::uint32_t block_id) {
  ClearRetiredBlock(block_id);  // the caller evacuated its live pages
  const std::uint32_t chip = nand_.Decoder().ChipOfBlock(block_id);
  if (active_block_per_chip_[chip] == block_id) {
    active_block_per_chip_[chip] = kNoActiveBlock;
    RefreshChipReady(chip);
  }
  if (block_health_[block_id] == BlockHealth::kHealthy) {
    ++out_of_service_blocks_;  // direct retirement (erase fault)
  }
  if (block_health_[block_id] != BlockHealth::kRetired) {
    block_health_[block_id] = BlockHealth::kRetired;
    ++retired_blocks_;
    ++stats_.blocks_retired;
  }
  RefreshVictim(block_id);
}

void PageFtl::EnterDegraded() {
  degraded_ = true;
  read_only_ = true;
}

CommandResult PageFtl::WriteRange(Lba lba, std::uint32_t count,
                                  std::uint64_t stamp_base, SimTime now) {
  assert(InExportedRange(lba, count));
  CommandResult cmd{FtlStatus::kOk, now};
  nand::PageView page;
  for (std::uint32_t i = 0; i < count; ++i) {
    page.stamp = stamp_base + i;
    const CommandResult r = WriteStep(lba + i, page, now);
    if (!r.ok()) return {r.status, cmd.complete_time};
    cmd.complete_time = std::max(cmd.complete_time, r.complete_time);
  }
  return cmd;
}

CommandResult PageFtl::ReadRange(Lba lba, std::uint32_t count, SimTime now) {
  assert(InExportedRange(lba, count));
  CommandResult cmd{FtlStatus::kOk, now};
  for (std::uint32_t i = 0; i < count; ++i) {
    const CommandResult r = ReadStep(lba + i, now).result;
    if (r.ok()) {
      cmd.complete_time = std::max(cmd.complete_time, r.complete_time);
    } else if (r.status != FtlStatus::kUnmapped) {
      return {r.status, cmd.complete_time};
    }
  }
  return cmd;
}

FtlResult PageFtl::WritePage(Lba lba, const nand::PageView& data,
                             SimTime now) {
  // A read-only device answers kReadOnly before the range check.
  if (!read_only_ && lba >= exported_lbas_) {
    return {FtlStatus::kOutOfRange, now, {}};
  }
  const CommandResult r = WriteStep(lba, data, now);
  return {r.status, r.complete_time, {}};
}

FtlResult PageFtl::ReadPage(Lba lba, SimTime now) {
  if (lba >= exported_lbas_) return {FtlStatus::kOutOfRange, now, {}};
  const PageRead r = ReadStep(lba, now);
  if (!r.result.ok()) return {r.result.status, r.result.complete_time, {}};
  return {FtlStatus::kOk, r.result.complete_time, nand::PageData(*r.data)};
}

CommandResult PageFtl::WriteStep(Lba lba, const nand::PageView& data,
                                 SimTime now) {
  if (read_only_) return {FtlStatus::kReadOnly, now};
  MutationAudit audit_scope(*this, "WritePage");
  JournalBatchScope journal_scope(*this, now);
  MaybeCheckpoint(now);
  ReleaseExpired(now);
  gc_.DrainRetirements(now);
  // Best-effort GC; the write only fails if no programmable page exists even
  // after collection (AllocatePage can still succeed from the active block
  // when the free pool is empty).
  gc_.EnsureFreeSpace(now);
  nand::PageView page = data;
  page.oob.lba = lba;
  page.oob.written_at = now;
  const SimTime written_at = now;
  nand::Ppa ppa = ProgramWithRedrive(page, now);
  if (ppa == nand::kInvalidPpa) {
    // Out of frontier space. When fault-driven retirement shrank the spare
    // pool this is the graceful end of the device's write life: latch
    // read-only so in-flight and future reads keep completing.
    if (out_of_service_blocks_ > 0) EnterDegraded();
    return {FtlStatus::kNoSpace, now};
  }

  MapVersion(lba, ppa, now);
  ++stats_.host_writes;
  JournalAppend({JournalOpKind::kMap, /*flag=*/false, lba, ppa,
                 nand::kInvalidPpa, write_seq_, written_at, now});
  return {FtlStatus::kOk, now};
}

PageFtl::PageRead PageFtl::ReadStep(Lba lba, SimTime now) {
  MutationAudit audit_scope(*this, "ReadPage");
  JournalBatchScope journal_scope(*this, now);
  ReleaseExpired(now);
  nand::Ppa ppa = l2p_.Get(lba);
  if (ppa == nand::kInvalidPpa) return {{FtlStatus::kUnmapped, now}, {}};
  obs::EmitInstant(tracer_, "ftl.map_lookup", "ftl", 0, now,
                   static_cast<std::int64_t>(ppa), "ppa");
  if (config_.delayed_deletion && config_.trim_tombstones &&
      IsTombstone(ppa)) {
    // The mapping points at a trim tombstone: host-visibly the LBA is
    // unmapped; the tombstone page only persists the trim for power loss.
    return {{FtlStatus::kUnmapped, now}, {}};
  }
  nand::NandResult rd = nand_.ReadPage(ppa, now);
  ++stats_.host_reads;
  if (rd.ok()) return {{FtlStatus::kOk, rd.complete_time}, rd.data};
  // kUncorrectableEcc: the ECC budget was exceeded; the mapping stays (a
  // later soft retry at the host level may be configured to re-drive the
  // read). kReadOfErasedPage / kBadAddress on a mapped LBA would mean the
  // mapping table itself is corrupt: report the data as lost instead of
  // asserting — the device stays up.
  return {{FtlStatus::kReadError, rd.complete_time}, {}};
}

FtlResult PageFtl::TrimPage(Lba lba, SimTime now) {
  if (read_only_) return {FtlStatus::kReadOnly, now, {}};
  if (lba >= exported_lbas_) return {FtlStatus::kOutOfRange, now, {}};
  MutationAudit audit_scope(*this, "TrimPage");
  JournalBatchScope journal_scope(*this, now);
  MaybeCheckpoint(now);
  ReleaseExpired(now);
  nand::Ppa old = l2p_.Get(lba);
  if (old == nand::kInvalidPpa) return {FtlStatus::kUnmapped, now, {}};
  if (config_.delayed_deletion && config_.trim_tombstones) {
    if (IsTombstone(old)) return {FtlStatus::kUnmapped, now, {}};
    // Persist the trim as a first-class version: program a tombstone page
    // ("lba unmapped at now") and map it exactly like an overwrite, so the
    // displaced version enters the recovery queue, GC relocates the
    // tombstone while it matters, rollback unwinds it like any version, and
    // a post-power-loss OOB scan replays the trim instead of resurrecting
    // the trimmed data. The trim journal ages the mapping out once the
    // retention window has passed. Best-effort: with the frontier dry the
    // trim still proceeds un-persisted (the pre-tombstone behavior).
    gc_.DrainRetirements(now);
    gc_.EnsureFreeSpace(now);
    nand::PageView tomb;
    tomb.oob.lba = lba;
    tomb.oob.written_at = now;
    tomb.oob.tombstone = true;
    const SimTime written_at = now;
    nand::Ppa tppa = ProgramWithRedrive(tomb, now);
    if (tppa != nand::kInvalidPpa) {
      // Re-reads the mapping: GC above may have relocated the current
      // version.
      MapVersion(lba, tppa, now);
      trim_journal_.push_back({now, lba});
      ++stats_.trim_tombstones;
      ++stats_.host_trims;
      JournalAppend({JournalOpKind::kMap, /*flag=*/true, lba, tppa,
                     nand::kInvalidPpa, write_seq_, written_at, now});
      return {FtlStatus::kOk, now, {}};
    }
    old = l2p_.Get(lba);
  }
  Retire(lba, old, now);
  l2p_.Set(lba, nand::kInvalidPpa);
  ++stats_.host_trims;
  JournalAppend({JournalOpKind::kTrim, /*flag=*/false, lba, nand::kInvalidPpa,
                 nand::kInvalidPpa, 0, now, 0});
  return {FtlStatus::kOk, now, {}};
}

void PageFtl::AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  gc_stall_hist_ = metrics == nullptr
                       ? nullptr
                       : &metrics->GetHistogram("ftl.gc_stall_us");
  restore_age_hist_ = metrics == nullptr
                          ? nullptr
                          : &metrics->GetHistogram("version.restore_age_us");
  queue_high_water_gauge_ =
      metrics == nullptr
          ? nullptr
          : &metrics->GetGauge("ftl.recovery_queue.high_water");
  if (queue_high_water_gauge_ != nullptr) {
    queue_high_water_gauge_->Set(static_cast<double>(queue_high_water_));
  }
  if (store_.Enabled()) {
    store_.AttachMetrics(metrics, config_.geometry.page_size);
  }
  nand_.AttachObs(tracer, metrics);
}

bool PageFtl::IsTombstone(nand::Ppa ppa) const {
  const std::optional<nand::PageView> d = RawPage(ppa);
  return d.has_value() && d->oob.tombstone;
}

std::optional<nand::Ppa> PageFtl::Lookup(Lba lba) const {
  if (lba >= exported_lbas_) return std::nullopt;
  nand::Ppa ppa = l2p_.Get(lba);
  if (ppa == nand::kInvalidPpa) return std::nullopt;
  if (config_.delayed_deletion && config_.trim_tombstones &&
      IsTombstone(ppa)) {
    return std::nullopt;  // a trimmed LBA is host-visibly unmapped
  }
  return ppa;
}

std::size_t PageFtl::RollBackCore(SimTime detect_time,
                                  std::vector<Lba>* touched_out) {
  SimTime horizon = detect_time - retention_window_;
  std::unordered_set<Lba> touched;
  std::size_t reverted = queue_.RollBack(
      horizon, [this, &touched](const BackupEntry& e) {
        nand::Ppa current = l2p_.Get(e.lba);
        if (current != nand::kInvalidPpa) MarkInvalid(current);
        assert(page_state_.Get(e.old_ppa) == PageState::kRetained);
        page_state_.Set(e.old_ppa, PageState::kValid);
        BlockCounters& info =
            block_counters_[nand_.Decoder().BlockIdOf(e.old_ppa)];
        --info.retained;
        ++info.valid;
        --retained_pages_;
        ++valid_pages_;
        l2p_.Set(e.lba, e.old_ppa);
        p2l_.Set(e.old_ppa, e.lba);
        touched.insert(e.lba);
      });
  if (touched_out != nullptr) {
    touched_out->assign(touched.begin(), touched.end());
  }
  return reverted;
}

RollbackReport PageFtl::RollBack(SimTime detect_time) {
  RollbackReport report;
  if (!config_.delayed_deletion) return report;
  MutationAudit audit_scope(*this, "RollBack");
  JournalBatchScope journal_scope(*this, detect_time);
  SetReadOnly(true);
  std::vector<Lba> touched;
  report.entries_reverted = RollBackCore(detect_time, &touched);
  report.mappings_restored = touched.size();
  report.duration =
      CostOf(report.entries_reverted, config_.rollback_entry_cost);
  ++stats_.rollbacks;
  stats_.rollback_entries += report.entries_reverted;
  // A rollback writes no new pages, so neither the OOB log nor a checkpoint
  // delta scan can reconstruct it — the journal record is its only durable
  // trace. Flush immediately (best-effort: if the flush tears, the rebuild
  // falls back to the pre-rollback state on both paths, and the rebuilt
  // ring allows re-running the rollback).
  JournalAppend({JournalOpKind::kRollback, /*flag=*/false, 0,
                 nand::kInvalidPpa, nand::kInvalidPpa, 0, detect_time, 0});
  SimTime flush_time = detect_time;
  JournalFlushAll(flush_time);
  return report;
}

RangeRollbackReport PageFtl::RollBackRange(Lba begin, Lba end,
                                           SimTime restore_point,
                                           SimTime now) {
  RangeRollbackReport report;
  report.begin = begin;
  report.end = std::min<Lba>(end, exported_lbas_);
  if (!config_.delayed_deletion || begin >= report.end) return report;
  MutationAudit audit_scope(*this, "RollBackRange");
  JournalBatchScope journal_scope(*this, now);
  const SimTime start = now;
  ReleaseExpired(now);

  for (Lba lba = begin; lba < report.end; ++lba) {
    ++report.lbas_examined;
    // The newest version written at or before the restore point, from the
    // three places a version can live. Source priority on equal times:
    // current mapping > ring > store (current wins so the LBA counts as
    // unchanged; a ring page wins over an archived one so the copy reads
    // the original page).
    struct Candidate {
      SimTime written_at = std::numeric_limits<SimTime>::min();
      nand::Ppa ppa = nand::kInvalidPpa;  // kInvalidPpa = tombstone record
      bool tombstone = false;
      bool found = false;
      bool is_current = false;
    };
    Candidate best;
    const nand::Ppa cur = l2p_.Get(lba);
    if (cur != nand::kInvalidPpa) {
      const std::optional<nand::PageView> d = RawPage(cur);
      if (d.has_value() && d->oob.written_at <= restore_point) {
        best = {d->oob.written_at, cur, d->oob.tombstone, true, true};
      }
    }
    // Ring entries, oldest first; only a strictly newer version displaces
    // the running best (the current version, if eligible, is always the
    // newest eligible one).
    queue_.ForEach([&](const BackupEntry& e) {
      if (e.lba != lba) return;
      const std::optional<nand::PageView> d = RawPage(e.old_ppa);
      if (!d.has_value() || d->oob.written_at > restore_point) return;
      if (!best.found || d->oob.written_at > best.written_at) {
        best = {d->oob.written_at, e.old_ppa, d->oob.tombstone, true, false};
      }
    });
    if (const std::vector<version::VersionRecord>* chain = store_.ChainOf(lba);
        chain != nullptr) {
      for (const version::VersionRecord& rec : *chain) {  // oldest first
        if (rec.written_at > restore_point) break;
        if (best.found && rec.written_at <= best.written_at) continue;
        best = {rec.written_at, rec.ppa, rec.tombstone, true, false};
      }
    }

    if (!best.found) {
      ++report.unversioned;
      continue;
    }
    const bool currently_unmapped =
        cur == nand::kInvalidPpa ||
        (config_.trim_tombstones && IsTombstone(cur));
    if (best.is_current) {
      ++report.unchanged;
      continue;
    }
    if (best.tombstone) {
      if (currently_unmapped) {
        ++report.unchanged;
        continue;
      }
      // The restore point shows a trim: retire the current version (the
      // unmap is undoable through the ring) and clear the mapping.
      Retire(lba, cur, now);
      l2p_.Set(lba, nand::kInvalidPpa);
      JournalAppend({JournalOpKind::kTrim, /*flag=*/false, lba,
                     nand::kInvalidPpa, nand::kInvalidPpa, 0, now, 0});
      ++report.unmapped;
      if (restore_age_hist_ != nullptr) {
        restore_age_hist_->Add(static_cast<double>(now - best.written_at));
      }
      continue;
    }

    // Data restore: copy the winner's payload *before* the program path can
    // trigger GC (which may relocate or reclaim the source page), then
    // program it as a fresh logical write. Stamping written_at = now keeps
    // the OOB log ordered — a post-crash rebuild must see the restored copy
    // as newer than the version it displaces — and makes the rollback
    // itself undoable.
    const std::optional<nand::PageView> src = RawPage(best.ppa);
    if (!src.has_value()) {
      ++report.unversioned;
      continue;
    }
    nand::PageData data(src->stamp, {src->bytes.begin(), src->bytes.end()});
    data.oob.lba = lba;
    data.oob.written_at = now;
    const SimTime written_at = now;
    gc_.DrainRetirements(now);
    gc_.EnsureFreeSpace(now);
    nand::Ppa fresh = ProgramWithRedrive(data, now);
    if (fresh == nand::kInvalidPpa) {
      ++report.failed;
      continue;
    }
    MapVersion(lba, fresh, now);  // re-reads the mapping GC may have moved
    JournalAppend({JournalOpKind::kMap, /*flag=*/false, lba, fresh,
                   nand::kInvalidPpa, write_seq_, written_at, now});
    ++report.restored;
    if (restore_age_hist_ != nullptr) {
      restore_age_hist_->Add(static_cast<double>(now - best.written_at));
    }
  }

  report.duration = (now - start) + CostOf(report.lbas_examined,
                                           config_.rollback_entry_cost);
  ++stats_.range_rollbacks;
  stats_.range_rollback_restored += report.restored + report.unmapped;
  return report;
}

std::size_t PageFtl::BackgroundCollect(SimTime now, std::size_t max_blocks) {
  if (read_only_) return 0;
  MutationAudit audit_scope(*this, "BackgroundCollect");
  JournalBatchScope journal_scope(*this, now);
  MaybeCheckpoint(now);
  ReleaseExpired(now);
  gc_.DrainRetirements(now);
  return gc_.BackgroundCollect(now, max_blocks);
}

std::size_t PageFtl::IdleCollect(SimTime now, std::size_t max_blocks,
                                 std::uint32_t max_movable) {
  if (read_only_) return 0;
  MutationAudit audit_scope(*this, "IdleCollect");
  JournalBatchScope journal_scope(*this, now);
  MaybeCheckpoint(now);
  ReleaseExpired(now);
  return gc_.CollectCheap(now, max_blocks, max_movable);
}

void PageFtl::WipeVolatileState() {
  const nand::Geometry& geo = config_.geometry;
  // Power loss wipes everything in DRAM. The grown-bad-block table
  // (block_health_) and the degraded latch survive — firmware persists them
  // in a reserved flash region — but an alarm's read-only latch does not:
  // the detector re-arms after reboot.
  l2p_.Assign(exported_lbas_);
  p2l_.Assign(geo.TotalPages());
  page_state_.Assign(geo.TotalPages(), PageState::kFree);
  block_counters_.assign(geo.TotalBlocks(), BlockCounters{});
  for (auto& pool : free_blocks_by_chip_) pool.clear();
  active_block_per_chip_.assign(geo.TotalChips(), kNoActiveBlock);
  free_block_count_ = 0;
  RefreshAllChipsReady();
  victims_.Clear();  // re-derived once the pools and frontiers are rebuilt
  queue_.Clear();
  // The version store's index is DRAM too. On the full-scan path archived
  // pages rescan as ordinary old versions, re-enter the rebuilt ring, and
  // re-archive in displacement order through the post-scan ReleaseExpired()
  // — converging to the pre-crash chains, one page per data record. The
  // checkpoint fast path restores the index exactly.
  store_.Clear();
  trim_journal_.clear();
  pending_retire_.clear();
  valid_pages_ = 0;
  retained_pages_ = 0;
  archived_pages_ = 0;
  write_seq_ = 0;
  read_only_ = degraded_;
  // The release horizon is volatile firmware state too; the post-rebuild
  // ReleaseExpired() re-establishes it from the caller's clock.
  last_release_horizon_ = std::numeric_limits<SimTime>::min();
}

void PageFtl::RecomputePendingRetire() {
  pending_retire_.clear();
  const nand::Geometry& geo = config_.geometry;
  for (std::uint32_t b = 0; b < geo.TotalBlocks(); ++b) {
    if (block_health_[b] == BlockHealth::kPendingRetire) {
      pending_retire_.push_back(b);
    }
  }
}

std::size_t PageFtl::RecomputePoolsAndFrontiers() {
  const nand::Geometry& geo = config_.geometry;
  std::size_t probe_reads = 0;
  for (auto& pool : free_blocks_by_chip_) pool.clear();
  active_block_per_chip_.assign(geo.TotalChips(), kNoActiveBlock);
  free_block_count_ = 0;
  // Erased healthy blocks refill the free pools (descending id, matching
  // construction order); a partially programmed healthy block is that chip's
  // open write frontier.
  for (std::uint32_t chip = 0; chip < geo.TotalChips(); ++chip) {
    std::uint64_t best_seq = 0;
    for (std::uint32_t i = geo.blocks_per_chip; i-- > 0;) {
      std::uint32_t b = chip * geo.blocks_per_chip + i;
      if (nand_.IsMetadataBlock(b)) continue;
      if (block_health_[b] != BlockHealth::kHealthy) continue;
      const nand::Block& blk = nand_.BlockAt(b);
      if (blk.IsErased()) {
        free_blocks_by_chip_[chip].push_back(b);
        ++free_block_count_;
      } else if (!blk.IsFull()) {
        // At most one open frontier per chip exists; if the scan ever finds
        // more, keep the one written most recently. The block's last
        // readable page carries its maximum OOB sequence (programs are
        // sequential), so one page read per candidate suffices.
        std::uint64_t max_seq = 0;
        for (std::uint32_t p = blk.WritePointer(); p-- > 0;) {
          const std::optional<nand::PageView> d = blk.Read(p);
          ++probe_reads;
          if (d.has_value()) {
            max_seq = d->oob.seq + 1;
            break;
          }
        }
        if (active_block_per_chip_[chip] == kNoActiveBlock ||
            max_seq > best_seq) {
          active_block_per_chip_[chip] = b;
          best_seq = max_seq;
        }
      }
    }
  }
  RefreshAllChipsReady();
  RebuildVictimIndex();
  return probe_reads;
}

void PageFtl::FullScanRebuild(RebuildReport& report, SimTime now) {
  const nand::Geometry& geo = config_.geometry;
  // One physical version of one LBA found by the scan. The payload stays on
  // NAND: the ghost check below peeks it again by PPA.
  struct Version {
    nand::Ppa ppa = nand::kInvalidPpa;
    std::uint64_t seq = 0;
    SimTime written_at = 0;
    bool tombstone = false;
  };
  std::unordered_map<Lba, std::vector<Version>> versions;

  for (std::uint32_t b = 0; b < geo.TotalBlocks(); ++b) {
    if (nand_.IsMetadataBlock(b)) continue;  // stamps only, no host data
    nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(b);
    const nand::Block& blk = nand_.BlockAt(b);
    if (block_health_[b] == BlockHealth::kRetired) {
      // Out of service: the bad-block table says never touch it again.
      ClearRetiredBlock(b);
      ++report.blocks_retired;
      continue;
    }
    if (block_health_[b] == BlockHealth::kPendingRetire) {
      pending_retire_.push_back(b);  // re-drain after the scan
    }
    for (std::uint32_t p = 0; p < blk.WritePointer(); ++p) {
      nand::Ppa ppa = geo.MakePpa(addr.chip, addr.block, p);
      if (blk.IsBadPage(p)) {
        page_state_.Set(ppa, PageState::kBad);
        continue;
      }
      // The scan uses the raw internal read path: OOB-only reads bypass the
      // ECC pipeline's RNG so a rebuild never perturbs the deterministic
      // error sequence. Its cost is modeled in report.duration instead.
      const nand::PageOob oob = blk.Read(p)->oob;
      ++report.pages_scanned;
      page_state_.Set(ppa, PageState::kInvalid);  // until a version claims it
      write_seq_ = std::max(write_seq_, oob.seq);
      if (oob.lba == kInvalidLba || oob.lba >= exported_lbas_) {
        continue;  // written outside the FTL (raw NAND tests)
      }
      versions[oob.lba].push_back(
          {ppa, oob.seq, oob.written_at, oob.tombstone});
    }
  }
  report.duration = CostOf(report.pages_scanned, config_.latency.page_read);

  // Order each LBA's versions oldest-first by logical write time (GC copies
  // keep their version's written_at), then by program sequence.
  struct QueuedBackup {
    SimTime displaced_at = 0;     ///< written_at of the displacing version
    std::uint64_t displacing_seq = 0;
    Lba lba = kInvalidLba;
    nand::Ppa old_ppa = nand::kInvalidPpa;
  };
  std::vector<QueuedBackup> backups;
  std::vector<TrimRecord> rebuilt_trims;
  for (auto& [lba, vers] : versions) {
    std::sort(vers.begin(), vers.end(), [](const Version& a, const Version& b) {
      return a.written_at != b.written_at ? a.written_at < b.written_at
                                          : a.seq < b.seq;
    });
    // GC-relocation ghosts: when a retained or valid page was copied but its
    // source block not yet erased, both copies survive the crash with equal
    // written_at and equal payload (tombstones ghost against tombstones
    // only — a data page and a tombstone are never the same version).
    std::vector<const Version*> live;
    for (std::size_t i = 0; i < vers.size(); ++i) {
      bool ghost = i + 1 < vers.size() &&
                   vers[i + 1].written_at == vers[i].written_at &&
                   vers[i + 1].tombstone == vers[i].tombstone &&
                   RawPage(vers[i + 1].ppa)
                       ->SamePayload(*RawPage(vers[i].ppa));
      if (!ghost) live.push_back(&vers[i]);
    }
    // Newest non-ghost version is the current mapping; each older one was
    // displaced when its successor was written. A newest *tombstone* is the
    // trim being replayed: it stays mapped (host-visibly unmapped) and
    // rejoins the trim journal so the window still ages it out.
    const Version* newest = live.back();
    MapVersion(lba, newest->ppa, newest->written_at);
    if (newest->tombstone) {
      rebuilt_trims.push_back({newest->written_at, lba});
    } else {
      ++report.mappings_restored;
    }
    if (config_.delayed_deletion) {
      for (std::size_t i = 0; i + 1 < live.size(); ++i) {
        backups.push_back({live[i + 1]->written_at, live[i + 1]->seq, lba,
                           live[i]->ppa});
      }
    }
  }

  // Rebuild the recovery queue in displacement order — the order the
  // original overwrites happened — so rollback replays identically.
  std::sort(backups.begin(), backups.end(),
            [](const QueuedBackup& a, const QueuedBackup& b) {
              return a.displaced_at != b.displaced_at
                         ? a.displaced_at < b.displaced_at
                         : a.displacing_seq < b.displacing_seq;
            });
  for (const QueuedBackup& qb : backups) {
    page_state_.Set(qb.old_ppa, PageState::kRetained);
    ++block_counters_[nand_.Decoder().BlockIdOf(qb.old_ppa)].retained;
    ++retained_pages_;
    PushBackup(qb.lba, qb.old_ppa, qb.displaced_at, now);
    ++report.backups_restored;
  }

  // Restore the per-chip pools and frontiers from media block headers (the
  // scan already billed every programmed page, so the frontier probes cost
  // nothing extra here).
  RecomputePoolsAndFrontiers();

  // The trim journal is volatile too: rebuild it time-ordered from the
  // still-mapped tombstones the scan found.
  std::sort(rebuilt_trims.begin(), rebuilt_trims.end(),
            [](const TrimRecord& a, const TrimRecord& b) {
              return a.time < b.time;
            });
  trim_journal_.assign(rebuilt_trims.begin(), rebuilt_trims.end());
}

bool PageFtl::ReplayJournalRecord(const JournalRecord& rec) {
  const nand::Geometry& geo = config_.geometry;
  switch (rec.kind) {
    case JournalOpKind::kMap: {
      if (rec.ppa == nand::kInvalidPpa || rec.lba >= exported_lbas_ ||
          page_state_.Get(rec.ppa) != PageState::kFree) {
        return false;
      }
      nand::Ppa old = l2p_.Get(rec.lba);
      if (old != nand::kInvalidPpa &&
          page_state_.Get(old) != PageState::kValid) {
        return false;
      }
      MapVersion(rec.lba, rec.ppa, rec.t2);
      write_seq_ = std::max(write_seq_, rec.seq);
      if (rec.flag) trim_journal_.push_back({rec.t2, rec.lba});
      return true;
    }
    case JournalOpKind::kTrim: {
      if (rec.lba >= exported_lbas_) return false;
      nand::Ppa old = l2p_.Get(rec.lba);
      if (old == nand::kInvalidPpa ||
          page_state_.Get(old) != PageState::kValid) {
        return false;  // the live op always had a mapped current version
      }
      Retire(rec.lba, old, rec.t1);
      l2p_.Set(rec.lba, nand::kInvalidPpa);
      return true;
    }
    case JournalOpKind::kBurn: {
      if (rec.ppa == nand::kInvalidPpa ||
          page_state_.Get(rec.ppa) != PageState::kFree) {
        return false;
      }
      page_state_.Set(rec.ppa, PageState::kBad);
      // No-op: the block's health persisted.
      MarkPendingRetire(nand_.Decoder().BlockIdOf(rec.ppa));
      write_seq_ = std::max(write_seq_, rec.seq);
      return true;
    }
    case JournalOpKind::kRelocate: {
      if (rec.ppa == nand::kInvalidPpa || rec.ppa2 == nand::kInvalidPpa ||
          page_state_.Get(rec.ppa2) != PageState::kFree ||
          !MovePage(rec.ppa, rec.ppa2)) {
        return false;
      }
      write_seq_ = std::max(write_seq_, rec.seq);
      return true;
    }
    case JournalOpKind::kDrop: {
      if (rec.ppa == nand::kInvalidPpa ||
          !HoldsVersion(page_state_.Get(rec.ppa))) {
        return false;
      }
      DropPage(rec.ppa);
      return true;
    }
    case JournalOpKind::kEraseIntent: {
      std::uint32_t block_id = static_cast<std::uint32_t>(rec.ppa);
      if (block_id >= geo.TotalBlocks()) return false;
      nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(block_id);
      if (nand_.BlockAt(block_id).EraseCount() > rec.seq) {
        // The intended erase reached media: replay its effects. The intent
        // flush carried every evacuation record, so the block must be fully
        // drained at this point in the replayed stream.
        if (block_counters_[block_id].Movable() != 0) return false;
        for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
          nand::Ppa ppa = geo.MakePpa(addr.chip, addr.block, p);
          page_state_.Set(ppa, PageState::kFree);
          p2l_.Set(ppa, kInvalidLba);
        }
        block_counters_[block_id] = BlockCounters{};
        return true;
      }
      // Intent flushed but the erase count never moved: the erase failed and
      // the block was retired on the spot (a crash cannot land between the
      // flush and the erase — they are one synchronous sequence, and the
      // power-cut probe only fires inside flushes).
      if (block_health_[block_id] == BlockHealth::kHealthy) return false;
      ClearRetiredBlock(block_id);
      return true;
    }
    case JournalOpKind::kRetireBlock: {
      std::uint32_t block_id = static_cast<std::uint32_t>(rec.ppa);
      if (block_id >= geo.TotalBlocks() ||
          block_health_[block_id] == BlockHealth::kHealthy) {
        return false;
      }
      ClearRetiredBlock(block_id);
      return true;
    }
    case JournalOpKind::kRelease:
      // Re-run the whole release pass at the recorded clock; deterministic
      // given the replayed state, and it reproduces archive/prune decisions
      // and tombstone aging exactly (the PR-6 crash-exactness gap).
      ReleaseExpired(rec.t1);
      return true;
    case JournalOpKind::kForcedRelease: {
      std::optional<BackupEntry> e = queue_.PopOldest();
      if (!e) return false;
      ReleaseBackup(*e, rec.t1);
      return true;
    }
    case JournalOpKind::kStoreEvict:
      store_.EvictOldest(static_cast<std::size_t>(rec.ppa),
                         [this](nand::Ppa p) { ReleaseArchived(p); });
      return true;
    case JournalOpKind::kRollback:
      RollBackCore(rec.t1, nullptr);
      return true;
  }
  return false;
}

bool PageFtl::DeltaScan(RebuildReport& report) {
  const nand::Geometry& geo = config_.geometry;
  struct DeltaPage {
    nand::Ppa ppa = nand::kInvalidPpa;
    nand::PageView data;
  };
  std::vector<DeltaPage> delta;
  for (std::uint32_t b = 0; b < geo.TotalBlocks(); ++b) {
    if (nand_.IsMetadataBlock(b)) continue;
    if (block_health_[b] == BlockHealth::kRetired) continue;
    nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(b);
    const nand::Block& blk = nand_.BlockAt(b);
    const std::uint32_t actual = blk.WritePointer();
    // Replayed horizon: programs land strictly in page order and every
    // journaled program marked its page non-free, so the count of non-free
    // states is exactly the write pointer the replayed stream knows about.
    std::uint32_t expected = 0;
    for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
      if (page_state_.Get(geo.MakePpa(addr.chip, addr.block, p)) !=
          PageState::kFree) {
        ++expected;
      }
    }
    if (expected > actual) return false;  // media behind DRAM: contradiction
    for (std::uint32_t p = expected; p < actual; ++p) {
      nand::Ppa ppa = geo.MakePpa(addr.chip, addr.block, p);
      if (blk.IsBadPage(p)) {
        // A burn whose record was lost with DRAM: persist the page state;
        // the health table already knows the block.
        page_state_.Set(ppa, PageState::kBad);
        MarkPendingRetire(b);
        ++report.delta_pages_scanned;
        continue;
      }
      const std::optional<nand::PageView> data = blk.Read(p);
      if (!data.has_value()) return false;
      delta.push_back({ppa, *data});
      ++report.delta_pages_scanned;
    }
  }

  // Apply the un-journaled tail in logical write order, the same ordering
  // rule the full scan uses.
  std::sort(delta.begin(), delta.end(),
            [](const DeltaPage& a, const DeltaPage& b) {
              return a.data.oob.written_at != b.data.oob.written_at
                         ? a.data.oob.written_at < b.data.oob.written_at
                         : a.data.oob.seq < b.data.oob.seq;
            });

  // Ring versions indexed by (lba, written_at) for ghost matching; updated
  // as ghosts transfer so repeated relocations chain correctly.
  std::map<std::pair<Lba, SimTime>, nand::Ppa> ring_index;
  queue_.ForEach([&](const BackupEntry& e) {
    const std::optional<nand::PageView> d = RawPage(e.old_ppa);
    if (d.has_value()) ring_index[{e.lba, d->oob.written_at}] = e.old_ppa;
  });

  for (const DeltaPage& dp : delta) {
    const nand::PageOob& oob = dp.data.oob;
    write_seq_ = std::max(write_seq_, oob.seq);
    if (oob.lba == kInvalidLba || oob.lba >= exported_lbas_) {
      page_state_.Set(dp.ppa, PageState::kInvalid);  // raw NAND writes
      continue;
    }
    if (page_state_.Get(dp.ppa) != PageState::kFree) return false;

    // GC-relocation ghosts (same version, two media copies, the erase lost
    // to the crash): the delta copy is always the newer one — keep it, same
    // as the full scan's ghost rule. Three places the source can live:
    // the current mapping, the ring, the version store.
    nand::Ppa cur = l2p_.Get(oob.lba);
    const std::optional<nand::PageView> cur_data = RawPage(cur);
    if (cur_data.has_value() && cur_data->oob.written_at == oob.written_at &&
        cur_data->oob.tombstone == oob.tombstone &&
        cur_data->SamePayload(dp.data)) {
      if (page_state_.Get(cur) != PageState::kValid ||
          !MovePage(cur, dp.ppa)) {
        return false;
      }
      continue;
    }
    if (auto it = ring_index.find({oob.lba, oob.written_at});
        it != ring_index.end()) {
      nand::Ppa src = it->second;
      const std::optional<nand::PageView> src_data = RawPage(src);
      if (src_data.has_value() &&
          src_data->oob.tombstone == oob.tombstone &&
          src_data->SamePayload(dp.data)) {
        if (page_state_.Get(src) != PageState::kRetained ||
            !MovePage(src, dp.ppa)) {
          return false;
        }
        it->second = dp.ppa;
        continue;
      }
    }
    if (const std::vector<version::VersionRecord>* chain =
            oob.tombstone ? nullptr : store_.ChainOf(oob.lba);
        chain != nullptr) {
      auto rec = std::find_if(
          chain->begin(), chain->end(), [&](const version::VersionRecord& r) {
            return !r.tombstone && r.written_at == oob.written_at &&
                   page_state_.Get(r.ppa) == PageState::kArchived;
          });
      if (rec != chain->end()) {
        const nand::Ppa src = rec->ppa;
        const std::optional<nand::PageView> src_data = RawPage(src);
        if (src_data.has_value() && src_data->SamePayload(dp.data)) {
          if (!MovePage(src, dp.ppa)) return false;
          continue;
        }
      }
    }

    // A genuinely new version: apply it like the live overwrite did, with
    // the displacement clock at the displacing version's write time.
    nand::Ppa old = l2p_.Get(oob.lba);
    if (old != nand::kInvalidPpa &&
        page_state_.Get(old) != PageState::kValid) {
      return false;
    }
    MapVersion(oob.lba, dp.ppa, oob.written_at);
    if (oob.tombstone) trim_journal_.push_back({oob.written_at, oob.lba});
  }

  // Blocks the persistent bad-block table says are out of service may have
  // been retired *after* the checkpoint with the retire-effects records
  // still in DRAM at the crash. The ghost matching above already moved
  // every surviving live copy out of them; normalize what is left to the
  // live RetireBlock semantics (programmed pages bad, the rest free). A
  // page still claiming to be live here lost its relocation/drop record
  // with the crash — only the full scan's from-scratch version
  // reconstruction resolves that, so report a contradiction.
  for (std::uint32_t b = 0; b < geo.TotalBlocks(); ++b) {
    if (nand_.IsMetadataBlock(b)) continue;
    if (block_health_[b] != BlockHealth::kRetired) continue;
    nand::BlockAddr addr = nand_.Decoder().AddrOfBlockId(b);
    for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
      if (HoldsVersion(
              page_state_.Get(geo.MakePpa(addr.chip, addr.block, p)))) {
        return false;
      }
    }
    ClearRetiredBlock(b);
  }
  return true;
}

PageFtl::RebuildReport PageFtl::RebuildFromNand(SimTime now) {
  MutationAudit audit_scope(*this, "RebuildFromNand");
  JournalBatchScope journal_scope(*this, now);
  RebuildReport report;

  WipeVolatileState();
  // Un-flushed journal records were DRAM too: the crash destroyed them.
  journal_.DropPending();

  bool fast = false;
  if (checkpoints_.Enabled()) {
    // O(Δ) fast path: locate the newest media-valid checkpoint (constant
    // validation reads), replay the journal tail, then OOB-scan only the
    // pages programmed past the replayed horizon.
    CheckpointStore::Located located = checkpoints_.LocateLatestValid();
    report.checkpoint_pages_read =
        static_cast<std::size_t>(located.pages_read);
    if (located.snapshot != nullptr) {
      MappingJournal::Tail tail = journal_.ValidTail(located.epoch);
      report.journal_pages_read = static_cast<std::size_t>(tail.pages_read);
      if (!tail.region_full) {
        RestoreFromSnapshot(*located.snapshot);
        replaying_ = true;
        bool ok = true;
        for (const JournalRecord& rec : tail.records) {
          if (!ReplayJournalRecord(rec)) {
            ok = false;
            break;
          }
        }
        replaying_ = false;
        report.journal_records_replayed = tail.records.size();
        RecomputePendingRetire();
        if (ok) ok = DeltaScan(report);
        fast = ok;
      }
    }
  }

  if (fast) {
    report.used_checkpoint = true;
    ++stats_.rebuild_fast_path;
    std::size_t frontier_probes = RecomputePoolsAndFrontiers();
    report.duration =
        CostOf(report.checkpoint_pages_read + report.journal_pages_read +
                   report.delta_pages_scanned + frontier_probes,
               config_.latency.page_read);
    // Page-accurate proxies: the fast path never enumerates per-LBA version
    // chains, so report the totals the restored tables imply.
    report.mappings_restored = static_cast<std::size_t>(valid_pages_);
    report.backups_restored = queue_.Size();
    report.blocks_retired = retired_blocks_;
    obs::EmitSpan(tracer_, "ftl.rebuild.replay", "ftl", 0, now,
                  now + report.duration,
                  static_cast<std::int64_t>(report.journal_records_replayed),
                  "journal_records");
    obs::EmitSpan(tracer_, "ftl.rebuild.delta_scan", "ftl", 0, now,
                  now + report.duration,
                  static_cast<std::int64_t>(report.delta_pages_scanned),
                  "delta_pages");
  } else {
    if (checkpoints_.Enabled()) {
      // Torn/missing checkpoint, journal-region overflow, or a replayed
      // record that contradicts media: wipe whatever the partial replay
      // touched and fall back to the exhaustive OOB scan.
      report.fallback_full_scan = true;
      ++stats_.rebuild_fallbacks;
      WipeVolatileState();
    }
    FullScanRebuild(report, now);
    obs::EmitSpan(tracer_, "ftl.rebuild.full_scan", "ftl", 0, now,
                  now + report.duration,
                  static_cast<std::int64_t>(report.pages_scanned), "pages");
  }

  ++stats_.rebuilds;
  // Age out anything the window no longer covers (also re-releases backups
  // whose release the crash erased, and expires replayed trims the window
  // no longer guards).
  ReleaseExpired(now);
  SimTime t = now;
  gc_.DrainRetirements(t);
  if (checkpoints_.Enabled()) {
    // Fresh baseline: the rebuilt state becomes the next checkpoint, so the
    // journal restarts empty and a repeat crash rebuilds in O(Δ) again.
    // Metadata ops draw no RNG, so the data-path fault sequence stays
    // unperturbed for deterministic-twin comparisons.
    TakeCheckpoint(t);
  }
  return report;
}

PageFtl::WearStats PageFtl::Wear() const {
  const nand::Geometry& geo = config_.geometry;
  WearStats w;
  w.min_erases = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < geo.TotalBlocks(); ++b) {
    std::uint64_t e = nand_.BlockAt(b).EraseCount();
    w.min_erases = std::min(w.min_erases, e);
    w.max_erases = std::max(w.max_erases, e);
    total += e;
  }
  if (geo.TotalBlocks() > 0) {
    w.mean_erases =
        static_cast<double>(total) / static_cast<double>(geo.TotalBlocks());
  } else {
    w.min_erases = 0;
  }
  return w;
}

std::string PageFtl::CheckInvariants() const {
  AuditReport report = InvariantAuditor::Audit(*this, /*max_violations=*/1);
  if (report.ok()) return {};
  const InvariantViolation& v = report.violations.front();
  return std::string(ToString(v.kind)) + " at " + v.where + ": expected " +
         v.expected + ", actual " + v.actual;
}

}  // namespace insider::ftl
