#include "core/counting_table.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <utility>

namespace insider::core {

CountingTable::CountingTable() : CountingTable(Config{}) {}

CountingTable::CountingTable(const Config& config) : config_(config) {
  assert(config_.max_entries > 0 && config_.max_entries < kNil);
}

CountingTable::SlotId CountingTable::NewRun(const CountingEntry& entry) {
  SlotId id = free_head_;
  if (id != kNil) {
    free_head_ = runs_[id].newer;
  } else {
    id = static_cast<SlotId>(runs_.size());
    runs_.emplace_back();
  }
  runs_[id].entry = entry;
  ++live_runs_;
  LinkByTime(id);
  return id;
}

void CountingTable::FreeRun(SlotId id) {
  Unlink(id);
  runs_[id].entry = CountingEntry{};  // rl == 0: free
  runs_[id].newer = free_head_;
  free_head_ = id;
  --live_runs_;
}

void CountingTable::EraseRun(SlotId id) {
  const CountingEntry& e = runs_[id].entry;
  for (std::uint32_t i = 0; i < e.rl; ++i) EraseKey(e.lba + i);
  FreeRun(id);
}

void CountingTable::Unlink(SlotId id) {
  RunSlot& run = runs_[id];
  (run.older == kNil ? oldest_ : runs_[run.older].newer) = run.newer;
  (run.newer == kNil ? newest_ : runs_[run.newer].older) = run.older;
  run.older = run.newer = kNil;
}

void CountingTable::LinkByTime(SlotId id) {
  const SliceIndex time = runs_[id].entry.time;
  SlotId after = newest_;
  while (after != kNil && runs_[after].entry.time > time) {
    after = runs_[after].older;
  }
  SlotId before = after == kNil ? oldest_ : runs_[after].newer;
  runs_[id].older = after;
  runs_[id].newer = before;
  (after == kNil ? oldest_ : runs_[after].newer) = id;
  (before == kNil ? newest_ : runs_[before].older) = id;
}

void CountingTable::TouchRun(SlotId id, SliceIndex slice) {
  CountingEntry& e = runs_[id].entry;
  if (e.time == slice) return;
  Unlink(id);
  e.time = slice;
  LinkByTime(id);
}

void CountingTable::EvictOldest() {
  if (oldest_ != kNil) EraseRun(oldest_);
}

std::size_t CountingTable::Home(Lba lba) const {
  // Multiplicative hash of the LBA's aligned group; the group's blocks take
  // consecutive slots, so a sequential run's keys share cache lines.
  const std::uint64_t group = (lba >> kGroupBits) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(
      ((group >> (key_shift_ + kGroupBits)) << kGroupBits) |
      (lba & ((Lba{1} << kGroupBits) - 1)));
}

CountingTable::KeySlot* CountingTable::FindKey(Lba lba) {
  return const_cast<KeySlot*>(std::as_const(*this).FindKey(lba));
}

const CountingTable::KeySlot* CountingTable::FindKey(Lba lba) const {
  if (keys_.empty() || lba == kInvalidLba) return nullptr;
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = Home(lba);; i = (i + 1) & mask) {
    const KeySlot& k = keys_[i];
    if (k.lba == lba) return &k;
    if (k.lba == kInvalidLba) return nullptr;
  }
}

void CountingTable::InsertKey(Lba lba, SliceIndex read_slice, SlotId run) {
  assert(lba != kInvalidLba);
  if ((key_count_ + 1) * kMaxLoadDen > keys_.size() * kMaxLoadNum) {
    RehashKeys(std::max(kMinKeySlots, 2 * keys_.size()));
  }
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = Home(lba);
  while (keys_[i].lba != kInvalidLba) {
    assert(keys_[i].lba != lba);
    i = (i + 1) & mask;
  }
  keys_[i] = KeySlot{lba, read_slice, run, BlockState::kReadTracked};
  ++key_count_;
}

void CountingTable::EraseKey(Lba lba) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t hole = Home(lba);
  while (keys_[hole].lba != lba) {
    assert(keys_[hole].lba != kInvalidLba);
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later key of the probe cluster into
  // the hole unless the hole lies before its home slot.
  for (std::size_t j = (hole + 1) & mask; keys_[j].lba != kInvalidLba;
       j = (j + 1) & mask) {
    if (((j - Home(keys_[j].lba)) & mask) >= ((j - hole) & mask)) {
      keys_[hole] = keys_[j];
      hole = j;
    }
  }
  keys_[hole].lba = kInvalidLba;
  --key_count_;
}

void CountingTable::RekeyRange(Lba from, std::uint32_t count, SlotId run) {
  for (std::uint32_t i = 0; i < count; ++i) {
    KeySlot* k = FindKey(from + i);
    assert(k != nullptr);
    k->run = run;
  }
}

std::size_t CountingTable::KeySlotsFor(std::size_t keys) {
  return std::max(kMinKeySlots,
                  std::bit_ceil(keys * kMaxLoadDen / kMaxLoadNum));
}

void CountingTable::RehashKeys(std::size_t slots) {
  assert(std::has_single_bit(slots));
  std::vector<KeySlot> old(slots);
  old.swap(keys_);
  key_shift_ = 64 - std::countr_zero(slots);
  const std::size_t mask = slots - 1;
  for (const KeySlot& k : old) {
    if (k.lba == kInvalidLba) continue;
    std::size_t i = Home(k.lba);
    while (keys_[i].lba != kInvalidLba) i = (i + 1) & mask;
    keys_[i] = k;
  }
}

void CountingTable::MaybeMergeWithNext(SlotId left_id) {
  CountingEntry& left = runs_[left_id].entry;
  const KeySlot* next = FindKey(left.lba + left.rl);
  if (next == nullptr) return;
  const SlotId right_id = next->run;
  CountingEntry& right = runs_[right_id].entry;
  assert(right.lba == left.lba + left.rl);
  // Only merge when at most one side has an overwrite run in flight, so WL
  // keeps measuring one contiguous overwritten stretch per entry.
  if (left.wl > 0 && right.wl > 0) return;
  if (right.time > left.time) {
    // Relinked while the right run is still listed, so the merged run lands
    // after it and every other run of the same time.
    Unlink(left_id);
    left.time = right.time;
    LinkByTime(left_id);
  }
  if (left.wl == 0) left.ow_next = right.ow_next;
  left.wl += right.wl;
  RekeyRange(right.lba, right.rl, left_id);
  left.rl += right.rl;
  FreeRun(right_id);  // its keys now belong to the left run
}

void CountingTable::HandleReadBlock(Lba lba, SliceIndex slice) {
  if (KeySlot* key = FindKey(lba)) {
    // Re-read of a tracked block: re-arm it so the next write counts as a
    // fresh overwrite (the ransomware read-encrypt-overwrite cycle). The
    // block leaves the "overwritten" population, so WL gives it back —
    // keeping the invariant that WL counts currently-overwritten blocks.
    CountingEntry& e = runs_[key->run].entry;
    if (key->state == BlockState::kOverwritten && e.wl > 0) {
      --e.wl;
      if (e.wl == 0) e.ow_next = kInvalidLba;
    }
    key->state = BlockState::kReadTracked;
    key->read_slice = slice;
    TouchRun(key->run, slice);
    return;
  }

  // Extend a run whose tail is exactly this block (UpdateEntryR). Block
  // `lba` is untracked, so a run holding `lba - 1` ends here.
  if (const KeySlot* prev = lba > 0 ? FindKey(lba - 1) : nullptr) {
    const SlotId id = prev->run;
    assert(runs_[id].entry.lba + runs_[id].entry.rl == lba);
    ++runs_[id].entry.rl;
    TouchRun(id, slice);
    InsertKey(lba, slice, id);
    MaybeMergeWithNext(id);
    return;
  }

  // NewEntry.
  while (live_runs_ >= config_.max_entries) EvictOldest();
  const SlotId id = NewRun(CountingEntry{slice, lba, 1, 0, kInvalidLba});
  InsertKey(lba, slice, id);
  MaybeMergeWithNext(id);
  // Soft hash-capacity cap: shed least-recently-active runs, but never the
  // only remaining one.
  while (key_count_ > config_.max_hash_keys && live_runs_ > 1) EvictOldest();
}

void CountingTable::HandleWriteBlock(Lba lba, SliceIndex slice) {
  KeySlot* key = FindKey(lba);
  if (key == nullptr) return;                          // plain write
  if (key->state == BlockState::kOverwritten) return;  // counted
  // Paper footnote 1: only writes to blocks read within the last N slices
  // count as overwrites. A stale tracked block neither counts nor keeps its
  // run alive.
  if (slice - key->read_slice >=
      static_cast<SliceIndex>(config_.window_slices)) {
    return;
  }

  key->state = BlockState::kOverwritten;
  ++counters_.overwrites;

  const SlotId id = key->run;
  TouchRun(id, slice);
  CountingEntry& e = runs_[id].entry;

  if (e.wl == 0 || lba == e.ow_next) {
    // Start or contiguously extend the overwrite run (UpdateEntryW).
    if (e.wl < e.rl) ++e.wl;
    e.ow_next = lba + 1;
    return;
  }
  if (lba == e.lba) {
    // Overwrite restarted at the run head; fold into the same entry.
    if (e.wl < e.rl) ++e.wl;
    e.ow_next = lba + 1;
    return;
  }

  // SplitEntry: a non-contiguous overwrite lands mid-run. Carve the tail
  // [lba, end) into its own entry so each entry's WL stays one contiguous
  // overwritten stretch.
  std::uint32_t left_len = static_cast<std::uint32_t>(lba - e.lba);
  std::uint32_t right_len = e.rl - left_len;
  e.rl = left_len;
  // The old contiguous overwrite run spans [ow_next - wl, ow_next) when it
  // has stayed contiguous; head-restarts and re-read give-backs can blur
  // that, so attribute WL to the side the frontier sits on and clamp both
  // sides to their capacity (WL <= RL is a table invariant).
  Lba old_ow_start = e.ow_next >= e.wl ? e.ow_next - e.wl : 0;
  std::uint32_t left_wl =
      (old_ow_start >= lba) ? 0 : std::min(e.wl, left_len);
  std::uint32_t right_wl = std::min(e.wl - left_wl, right_len - 1);
  e.wl = left_wl;
  if (left_wl == 0) e.ow_next = kInvalidLba;
  // NewRun may grow the slot array: `e` is not used past this point.
  const SlotId right_id = NewRun(CountingEntry{
      slice, lba, right_len, static_cast<std::uint32_t>(right_wl + 1),
      lba + 1});
  RekeyRange(lba, right_len, right_id);
  while (live_runs_ > config_.max_entries) EvictOldest();
}

void CountingTable::OnRead(Lba lba, std::uint32_t length, SliceIndex slice) {
  assert(lba <= kInvalidLba - length);
  counters_.read_blocks += length;
  for (std::uint32_t i = 0; i < length; ++i) HandleReadBlock(lba + i, slice);
}

void CountingTable::OnWrite(Lba lba, std::uint32_t length, SliceIndex slice) {
  assert(lba <= kInvalidLba - length);
  counters_.write_blocks += length;
  for (std::uint32_t i = 0; i < length; ++i) HandleWriteBlock(lba + i, slice);
}

SliceCounters CountingTable::EndSlice() {
  SliceCounters out = counters_;
  counters_ = SliceCounters{};
  return out;
}

void CountingTable::DropOlderThan(SliceIndex min_slice) {
  while (oldest_ != kNil && runs_[oldest_].entry.time < min_slice) {
    EraseRun(oldest_);
  }
}

void CountingTable::ShrinkTo(std::size_t max_entries,
                             std::size_t max_hash_keys) {
  config_.max_entries = std::min(config_.max_entries, std::max<std::size_t>(
                                                          max_entries, 1));
  config_.max_hash_keys = std::min(
      config_.max_hash_keys, std::max<std::size_t>(max_hash_keys, 1));
  while (live_runs_ > config_.max_entries) EvictOldest();
  while (key_count_ > config_.max_hash_keys && live_runs_ > 1) EvictOldest();

  // Compact the live runs into slots [0, live) in recency order, so the slot
  // array shrinks to the live state, then rebuild the key table at its
  // smallest size.
  std::vector<SlotId> new_id(runs_.size(), kNil);
  std::vector<RunSlot> compact;
  compact.reserve(live_runs_);
  for (SlotId id = oldest_; id != kNil; id = runs_[id].newer) {
    const auto slot = static_cast<SlotId>(compact.size());
    new_id[id] = slot;
    compact.push_back({runs_[id].entry, slot == 0 ? kNil : slot - 1, kNil});
    if (slot > 0) compact[slot - 1].newer = slot;
  }
  runs_.swap(compact);
  free_head_ = kNil;
  oldest_ = runs_.empty() ? kNil : 0;
  newest_ = runs_.empty() ? kNil : static_cast<SlotId>(runs_.size() - 1);
  for (KeySlot& k : keys_) {
    if (k.lba != kInvalidLba) k.run = new_id[k.run];
  }
  if (KeySlotsFor(key_count_) < keys_.size()) {
    RehashKeys(KeySlotsFor(key_count_));
  }
}

double CountingTable::AverageOverwriteRunLength() const {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  for (const RunSlot& run : runs_) {
    if (run.entry.wl > 0) {
      sum += run.entry.wl;
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

std::vector<const CountingEntry*> CountingTable::EntriesByLba() const {
  std::vector<const CountingEntry*> out;
  out.reserve(live_runs_);
  for (const RunSlot& run : runs_) {
    if (run.entry.rl > 0) out.push_back(&run.entry);
  }
  std::sort(out.begin(), out.end(),
            [](const CountingEntry* a, const CountingEntry* b) {
              return a->lba < b->lba;
            });
  return out;
}

std::string CountingTable::CheckInvariants() const {
  std::ostringstream err;
  std::size_t covered = 0;
  Lba prev_end = 0;
  bool first = true;
  for (const CountingEntry* e : EntriesByLba()) {
    const Lba start = e->lba;
    if (e->wl > e->rl) {
      err << "entry " << start << " wl " << e->wl << " > rl " << e->rl;
      return err.str();
    }
    if (!first && start < prev_end) {
      err << "entry " << start << " overlaps previous run ending at "
          << prev_end;
      return err.str();
    }
    first = false;
    prev_end = start + e->rl;
    covered += e->rl;
    for (std::uint32_t i = 0; i < e->rl; ++i) {
      const KeySlot* k = FindKey(start + i);
      if (k == nullptr) {
        err << "block " << start + i << " of run " << start
            << " missing from index";
        return err.str();
      }
      if (k->run >= runs_.size() || &runs_[k->run].entry != e) {
        err << "block " << start + i << " indexed to wrong run slot "
            << k->run << " (expected run " << start << ")";
        return err.str();
      }
    }
  }
  if (covered != key_count_) {
    err << "index holds " << key_count_ << " keys but runs cover " << covered
        << " blocks";
    return err.str();
  }
  std::size_t occupied = 0;
  for (const KeySlot& k : keys_) occupied += k.lba != kInvalidLba ? 1 : 0;
  if (occupied != key_count_ || key_count_ * kMaxLoadDen >
                                    keys_.size() * kMaxLoadNum) {
    err << "key table holds " << occupied << " of " << keys_.size()
        << " slots, counted " << key_count_;
    return err.str();
  }
  std::size_t listed = 0;
  SlotId prev = kNil;
  for (SlotId id = oldest_; id != kNil; prev = id, id = runs_[id].newer) {
    const RunSlot& run = runs_[id];
    ++listed;
    if (run.entry.rl == 0 || run.older != prev ||
        (prev != kNil && runs_[prev].entry.time > run.entry.time) ||
        listed > live_runs_) {
      err << "recency list broken at run " << run.entry.lba;
      return err.str();
    }
  }
  if (prev != newest_ || listed != live_runs_) {
    err << "recency list holds " << listed << " runs, counted " << live_runs_;
    return err.str();
  }
  std::size_t free_slots = 0;
  for (SlotId id = free_head_; id != kNil && free_slots <= runs_.size();
       id = runs_[id].newer) {
    ++free_slots;
  }
  if (free_slots + live_runs_ != runs_.size()) {
    err << "free list holds " << free_slots << " slots, expected "
        << runs_.size() - live_runs_;
    return err.str();
  }
  return {};
}

}  // namespace insider::core
