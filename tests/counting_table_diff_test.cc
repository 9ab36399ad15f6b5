// Differential test of the counting table: the flat-array table must make
// every decision the original three-container table made. The original
// (a std::map of runs, a std::multimap time index and an unordered_map per-
// block index) lives on here only, as the reference; randomized header
// streams with eviction pressure, mid-stream ShrinkTo, splits, merges,
// re-reads and some decreasing slices go through both, and their state is
// compared after every request.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/counting_table.h"

namespace insider::core {
namespace {

/// The original counting table, kept verbatim in behaviour.
class ReferenceTable {
 public:
  struct Entry {
    SliceIndex time = 0;
    Lba lba = 0;
    std::uint32_t rl = 0;
    std::uint32_t wl = 0;
    Lba ow_next = kInvalidLba;
    std::multimap<SliceIndex, Lba>::iterator time_it{};
  };

  explicit ReferenceTable(const CountingTable::Config& config)
      : config_(config) {}

  void OnRead(Lba lba, std::uint32_t length, SliceIndex slice) {
    counters_.read_blocks += length;
    for (std::uint32_t i = 0; i < length; ++i) HandleReadBlock(lba + i, slice);
  }

  void OnWrite(Lba lba, std::uint32_t length, SliceIndex slice) {
    counters_.write_blocks += length;
    for (std::uint32_t i = 0; i < length; ++i) {
      HandleWriteBlock(lba + i, slice);
    }
  }

  const SliceCounters& Counters() const { return counters_; }

  SliceCounters EndSlice() {
    SliceCounters out = counters_;
    counters_ = SliceCounters{};
    return out;
  }

  void DropOlderThan(SliceIndex min_slice) {
    while (!by_time_.empty() && by_time_.begin()->first < min_slice) {
      EraseEntry(entries_.find(by_time_.begin()->second));
    }
  }

  void ShrinkTo(std::size_t max_entries, std::size_t max_hash_keys) {
    config_.max_entries = std::min(
        config_.max_entries, std::max<std::size_t>(max_entries, 1));
    config_.max_hash_keys = std::min(
        config_.max_hash_keys, std::max<std::size_t>(max_hash_keys, 1));
    while (entries_.size() > config_.max_entries) EvictOldest();
    while (index_.size() > config_.max_hash_keys && entries_.size() > 1) {
      EvictOldest();
    }
  }

  double AverageOverwriteRunLength() const {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (const auto& [start, e] : entries_) {
      if (e.wl > 0) {
        sum += e.wl;
        ++count;
      }
    }
    if (count == 0) return 0.0;
    return static_cast<double>(sum) / static_cast<double>(count);
  }

  std::size_t EntryCount() const { return entries_.size(); }
  std::size_t KeyCount() const { return index_.size(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [start, e] : entries_) fn(e);
  }

 private:
  enum class BlockState : std::uint8_t { kReadTracked, kOverwritten };
  struct Key {
    Lba run_start;
    BlockState state;
    SliceIndex read_slice;
  };
  using EntryMap = std::map<Lba, Entry>;

  void EraseEntry(EntryMap::iterator it) {
    const Entry& e = it->second;
    for (std::uint32_t i = 0; i < e.rl; ++i) index_.erase(e.lba + i);
    by_time_.erase(e.time_it);
    entries_.erase(it);
  }

  void TouchEntry(EntryMap::iterator it, SliceIndex slice) {
    Entry& e = it->second;
    if (e.time == slice) return;
    by_time_.erase(e.time_it);
    e.time = slice;
    e.time_it = by_time_.emplace(slice, e.lba);
  }

  void EvictOldest() {
    if (entries_.empty()) return;
    EraseEntry(entries_.find(by_time_.begin()->second));
  }

  void RekeyRange(Lba from, std::uint32_t count, Lba new_start) {
    for (std::uint32_t i = 0; i < count; ++i) {
      index_.find(from + i)->second.run_start = new_start;
    }
  }

  void MaybeMergeWithNext(EntryMap::iterator it) {
    auto next = std::next(it);
    if (next == entries_.end()) return;
    Entry& left = it->second;
    Entry& right = next->second;
    if (left.lba + left.rl != right.lba) return;
    if (left.wl > 0 && right.wl > 0) return;
    if (right.time > left.time) {
      by_time_.erase(left.time_it);
      left.time = right.time;
      left.time_it = by_time_.emplace(left.time, left.lba);
    }
    if (left.wl == 0) left.ow_next = right.ow_next;
    left.wl += right.wl;
    RekeyRange(right.lba, right.rl, left.lba);
    left.rl += right.rl;
    by_time_.erase(right.time_it);
    entries_.erase(next);
  }

  void HandleReadBlock(Lba lba, SliceIndex slice) {
    auto key_it = index_.find(lba);
    if (key_it != index_.end()) {
      auto entry_it = entries_.find(key_it->second.run_start);
      if (key_it->second.state == BlockState::kOverwritten &&
          entry_it->second.wl > 0) {
        --entry_it->second.wl;
        if (entry_it->second.wl == 0) entry_it->second.ow_next = kInvalidLba;
      }
      key_it->second.state = BlockState::kReadTracked;
      key_it->second.read_slice = slice;
      TouchEntry(entry_it, slice);
      return;
    }
    auto it = entries_.upper_bound(lba);
    if (it != entries_.begin()) {
      auto prev = std::prev(it);
      Entry& e = prev->second;
      if (e.lba + e.rl == lba) {
        ++e.rl;
        TouchEntry(prev, slice);
        index_.emplace(lba, Key{e.lba, BlockState::kReadTracked, slice});
        MaybeMergeWithNext(prev);
        return;
      }
    }
    while (entries_.size() >= config_.max_entries) EvictOldest();
    auto [entry_it, inserted] =
        entries_.emplace(lba, Entry{slice, lba, 1, 0, kInvalidLba, {}});
    entry_it->second.time_it = by_time_.emplace(slice, lba);
    index_.emplace(lba, Key{lba, BlockState::kReadTracked, slice});
    MaybeMergeWithNext(entry_it);
    while (index_.size() > config_.max_hash_keys && entries_.size() > 1) {
      EvictOldest();
    }
  }

  void HandleWriteBlock(Lba lba, SliceIndex slice) {
    auto key_it = index_.find(lba);
    if (key_it == index_.end()) return;
    if (key_it->second.state == BlockState::kOverwritten) return;
    if (slice - key_it->second.read_slice >=
        static_cast<SliceIndex>(config_.window_slices)) {
      return;
    }
    key_it->second.state = BlockState::kOverwritten;
    ++counters_.overwrites;
    auto entry_it = entries_.find(key_it->second.run_start);
    TouchEntry(entry_it, slice);
    Entry& e = entry_it->second;
    if (e.wl == 0 || lba == e.ow_next) {
      if (e.wl < e.rl) ++e.wl;
      e.ow_next = lba + 1;
      return;
    }
    if (lba == e.lba) {
      if (e.wl < e.rl) ++e.wl;
      e.ow_next = lba + 1;
      return;
    }
    std::uint32_t left_len = static_cast<std::uint32_t>(lba - e.lba);
    std::uint32_t right_len = e.rl - left_len;
    e.rl = left_len;
    Lba old_ow_start = e.ow_next >= e.wl ? e.ow_next - e.wl : 0;
    std::uint32_t left_wl =
        (old_ow_start >= lba) ? 0 : std::min(e.wl, left_len);
    std::uint32_t right_wl = std::min(e.wl - left_wl, right_len - 1);
    e.wl = left_wl;
    if (left_wl == 0) e.ow_next = kInvalidLba;
    auto [right_it, inserted] = entries_.emplace(
        lba, Entry{slice, lba, right_len,
                   static_cast<std::uint32_t>(right_wl + 1), lba + 1, {}});
    right_it->second.time_it = by_time_.emplace(slice, lba);
    RekeyRange(lba, right_len, lba);
    while (entries_.size() > config_.max_entries) EvictOldest();
  }

  CountingTable::Config config_;
  EntryMap entries_;
  std::unordered_map<Lba, Key> index_;
  std::multimap<SliceIndex, Lba> by_time_;
  SliceCounters counters_;
};

using EntryTuple =
    std::tuple<SliceIndex, Lba, std::uint32_t, std::uint32_t, Lba>;

template <typename Table>
std::vector<EntryTuple> Entries(const Table& t) {
  std::vector<EntryTuple> out;
  t.ForEach([&](const auto& e) {
    out.emplace_back(e.time, e.lba, e.rl, e.wl, e.ow_next);
  });
  return out;
}

/// Empty when the two tables agree on everything observable.
template <typename A, typename B>
std::string Diff(const A& a, const B& b) {
  std::ostringstream out;
  const SliceCounters& ca = a.Counters();
  const SliceCounters& cb = b.Counters();
  if (ca.read_blocks != cb.read_blocks || ca.write_blocks != cb.write_blocks ||
      ca.overwrites != cb.overwrites) {
    out << "counters differ (overwrites " << ca.overwrites << " vs "
        << cb.overwrites << ")";
  } else if (a.EntryCount() != b.EntryCount()) {
    out << "entry count " << a.EntryCount() << " vs " << b.EntryCount();
  } else if (a.KeyCount() != b.KeyCount()) {
    out << "key count " << a.KeyCount() << " vs " << b.KeyCount();
  } else if (Entries(a) != Entries(b)) {
    out << "entries differ";
  } else if (a.AverageOverwriteRunLength() != b.AverageOverwriteRunLength()) {
    out << "AVGWIO " << a.AverageOverwriteRunLength() << " vs "
        << b.AverageOverwriteRunLength();
  }
  return out.str();
}

/// One random header stream: local LBA jumps so runs meet, split and get
/// re-read; slices mostly advance, sometimes step back.
struct Stream {
  explicit Stream(std::uint64_t seed) : rng(seed) {}

  CountingTable::Config RandomConfig() {
    CountingTable::Config c;
    c.max_entries = 2 + rng.Below(48);
    c.max_hash_keys = 8 + rng.Below(400);
    c.window_slices = 1 + rng.Below(12);
    return c;
  }

  Rng rng;
  Lba cursor = 1000;
  SliceIndex slice = 0;
};

enum class Op : std::uint8_t { kRead, kWrite, kEndSlice, kShrink };

template <typename Fn>
void RunStream(Stream& s, int requests, Fn&& apply) {
  for (int r = 0; r < requests; ++r) {
    double dice = s.rng.Uniform();
    if (dice < 0.04) {
      // Close the slice: advance (rarely step back) and slide the window.
      if (s.rng.Chance(0.1)) {
        s.slice -= static_cast<SliceIndex>(1 + s.rng.Below(3));
      } else {
        s.slice += static_cast<SliceIndex>(1 + s.rng.Below(2));
      }
      apply(Op::kEndSlice, 0, 0, s.slice);
      continue;
    }
    if (dice < 0.045) {
      apply(Op::kShrink, 1 + s.rng.Below(40), 4 + s.rng.Below(300), s.slice);
      continue;
    }
    // Mostly small moves around the cursor, sometimes a far jump.
    if (s.rng.Chance(0.05)) {
      s.cursor = s.rng.Below(1u << 20);
    } else {
      s.cursor += s.rng.Below(24);
      s.cursor -= std::min<Lba>(s.cursor, s.rng.Below(24));
    }
    auto length = static_cast<std::uint32_t>(1 + s.rng.Below(12));
    apply(s.rng.Chance(0.5) ? Op::kRead : Op::kWrite, s.cursor, length,
          s.slice);
  }
}

template <typename Table>
void Apply(Table& t, Op op, std::uint64_t a, std::uint64_t b,
           SliceIndex slice, std::size_t window) {
  switch (op) {
    case Op::kRead:
      t.OnRead(a, static_cast<std::uint32_t>(b), slice);
      break;
    case Op::kWrite:
      t.OnWrite(a, static_cast<std::uint32_t>(b), slice);
      break;
    case Op::kEndSlice:
      t.EndSlice();
      t.DropOlderThan(slice - static_cast<SliceIndex>(window));
      break;
    case Op::kShrink:
      t.ShrinkTo(a, b);
      break;
  }
}

class CountingTableDiffTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CountingTableDiffTest, MatchesReferenceAfterEveryRequest) {
  // How often the streams hit the paths under test, over all sub-streams.
  int merges = 0, splits = 0, shrinks = 0, steps_back = 0;
  for (std::uint64_t sub = 0; sub < 4; ++sub) {
    Stream s(GetParam() * 1000 + sub);
    const CountingTable::Config cfg = s.RandomConfig();
    CountingTable table(cfg);
    ReferenceTable reference(cfg);
    int step = 0;
    SliceIndex last_slice = 0;
    RunStream(s, 3000, [&](Op op, std::uint64_t a, std::uint64_t b,
                           SliceIndex slice) {
      const std::size_t runs_before = reference.EntryCount();
      const std::size_t keys_before = reference.KeyCount();
      Apply(table, op, a, b, slice, cfg.window_slices);
      Apply(reference, op, a, b, slice, cfg.window_slices);
      ++step;
      // Every block of the read is new and no key was evicted, yet there
      // are fewer runs: the read joined two runs. Only a split adds runs
      // on a write.
      if (op == Op::kRead && reference.KeyCount() == keys_before + b &&
          reference.EntryCount() < runs_before) {
        ++merges;
      }
      if (op == Op::kWrite && reference.EntryCount() > runs_before) ++splits;
      if (op == Op::kShrink) ++shrinks;
      if (slice < last_slice) ++steps_back;
      last_slice = slice;
      ASSERT_EQ(Diff(table, reference), "")
          << "seed " << GetParam() << "/" << sub << " step " << step;
      ASSERT_EQ(table.CheckInvariants(), "")
          << "seed " << GetParam() << "/" << sub << " step " << step;
    });
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(merges, 0);
  EXPECT_GT(splits, 0);
  EXPECT_GT(shrinks, 0);
  EXPECT_GT(steps_back, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountingTableDiffTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(CountingTableCopyTest, CopyIsIndependentOfItsSource) {
  // Detector state must be a plain value (checkpointing copies it): a copy
  // taken mid-stream keeps working after its source is gone, and it makes
  // the same decisions as a table that was never copied.
  Stream s(77);
  CountingTable::Config cfg = s.RandomConfig();
  cfg.max_entries = 24;
  cfg.max_hash_keys = 160;
  auto source = std::make_unique<CountingTable>(cfg);
  CountingTable uncopied(cfg);
  auto both = [&](Op op, std::uint64_t a, std::uint64_t b, SliceIndex slice) {
    Apply(*source, op, a, b, slice, cfg.window_slices);
    Apply(uncopied, op, a, b, slice, cfg.window_slices);
  };
  RunStream(s, 1500, both);
  ASSERT_GT(source->EntryCount(), 0u);

  CountingTable first = *source;
  CountingTable second(cfg);
  second = *source;
  source.reset();

  RunStream(s, 1500, [&](Op op, std::uint64_t a, std::uint64_t b,
                         SliceIndex slice) {
    Apply(first, op, a, b, slice, cfg.window_slices);
    Apply(second, op, a, b, slice, cfg.window_slices);
    Apply(uncopied, op, a, b, slice, cfg.window_slices);
    ASSERT_EQ(Diff(first, second), "");
    ASSERT_EQ(Diff(first, uncopied), "");
    ASSERT_EQ(first.CheckInvariants(), "");
  });
  // Slide every run out of both copies.
  first.DropOlderThan(s.slice + 100);
  second.DropOlderThan(s.slice + 100);
  EXPECT_EQ(first.EntryCount(), 0u);
  EXPECT_EQ(second.KeyCount(), 0u);
}

}  // namespace
}  // namespace insider::core
