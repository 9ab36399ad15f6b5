#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ftl/page_ftl.h"
#include "ftl/recovery_queue.h"
#include "ftl/state_tamperer.h"

namespace insider::ftl {
namespace {

using EntryId = RecoveryQueue::EntryId;

TEST(RecoveryQueueTest, StartsEmpty) {
  RecoveryQueue q(0);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.ResidentBytes(), 0u);
}

TEST(RecoveryQueueTest, PushGuardsPpa) {
  RecoveryQueue q(0);
  const EntryId id = q.Push(10, 100, Seconds(1)).id;
  EXPECT_TRUE(q.Guards(id, 100));
  EXPECT_FALSE(q.Guards(id, 101));
  EXPECT_FALSE(q.Guards(id + 1, 100));
  EXPECT_FALSE(q.Guards(kNoPageId, 100));
  EXPECT_EQ(q.Size(), 1u);
}

TEST(RecoveryQueueTest, ReleaseUpToHonorsHorizon) {
  RecoveryQueue q(0);
  const EntryId first = q.Push(1, 100, Seconds(1)).id;
  q.Push(2, 101, Seconds(2));
  const EntryId third = q.Push(3, 102, Seconds(3)).id;
  std::vector<Lba> released;
  q.ReleaseUpTo(Seconds(2),
                [&](const BackupEntry& e) { released.push_back(e.lba); });
  EXPECT_EQ(released, (std::vector<Lba>{1, 2}));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Guards(third, 102));
  EXPECT_FALSE(q.Guards(first, 100));
}

TEST(RecoveryQueueTest, CapacityEvictsOldest) {
  RecoveryQueue q(2);
  const EntryId first = q.Push(1, 100, 1).id;
  EXPECT_FALSE(q.Push(2, 101, 2).evicted.has_value());
  auto evicted = q.Push(3, 102, 3).evicted;
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lba, 1u);
  EXPECT_EQ(evicted->old_ppa, 100u);
  EXPECT_EQ(evicted->written_at, 1);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_FALSE(q.Guards(first, 100));
}

TEST(RecoveryQueueTest, RelocateFollowsGc) {
  RecoveryQueue q(0);
  const EntryId id = q.Push(5, 200, 10).id;
  EXPECT_TRUE(q.Relocate(id, 200, 300));
  EXPECT_FALSE(q.Guards(id, 200));
  EXPECT_TRUE(q.Guards(id, 300));  // the id follows the page
  EXPECT_FALSE(q.Relocate(id, 200, 400));  // already moved
  // Rollback must revert to the *new* location.
  std::size_t n = q.RollBack(0, [&](const BackupEntry& e) {
    EXPECT_EQ(e.old_ppa, 300u);
  });
  EXPECT_EQ(n, 1u);
}

TEST(RecoveryQueueTest, RelocateAfterPopMiddleOfQueue) {
  // Regression for the id/offset bookkeeping: relocate an entry after the
  // head has advanced.
  RecoveryQueue q(0);
  q.Push(1, 100, 1);
  q.Push(2, 101, 2);
  const EntryId third = q.Push(3, 102, 3).id;
  q.ReleaseUpTo(1, [](const BackupEntry&) {});  // pop entry (1,100)
  EXPECT_TRUE(q.Relocate(third, 102, 500));
  std::vector<nand::Ppa> ppas;
  q.ForEach([&](const BackupEntry& e) { ppas.push_back(e.old_ppa); });
  EXPECT_EQ(ppas, (std::vector<nand::Ppa>{101, 500}));
}

TEST(RecoveryQueueTest, RollBackNewestFirstStopsAtHorizon) {
  RecoveryQueue q(0);
  const EntryId first = q.Push(1, 100, Seconds(1)).id;
  q.Push(2, 101, Seconds(5));
  q.Push(3, 102, Seconds(9));
  std::vector<Lba> reverted;
  std::size_t n = q.RollBack(
      Seconds(4), [&](const BackupEntry& e) { reverted.push_back(e.lba); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(reverted, (std::vector<Lba>{3, 2}));  // newest first
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Guards(first, 100));
}

TEST(RecoveryQueueTest, RollBackSameLbaChainEndsAtOldestVersion) {
  // LBA 7 overwritten three times within the window: the final revert must
  // leave the *oldest* (pre-window) version, exactly as Fig. 5 requires.
  RecoveryQueue q(0);
  q.Push(7, 100, Seconds(11));
  q.Push(7, 101, Seconds(12));
  q.Push(7, 102, Seconds(13));
  Lba last_restored = kInvalidLba;
  nand::Ppa last_ppa = nand::kInvalidPpa;
  q.RollBack(Seconds(10), [&](const BackupEntry& e) {
    last_restored = e.lba;
    last_ppa = e.old_ppa;
  });
  EXPECT_EQ(last_restored, 7u);
  EXPECT_EQ(last_ppa, 100u);  // the oldest backup applied last
  EXPECT_TRUE(q.Empty());
}

TEST(RecoveryQueueTest, PopOldestFifoOrder) {
  RecoveryQueue q(0);
  q.Push(1, 100, 1);
  q.Push(2, 101, 2);
  auto e = q.PopOldest();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->lba, 1u);
  e = q.PopOldest();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->lba, 2u);
  EXPECT_FALSE(q.PopOldest().has_value());
}

// Pushes are not in time order, so a forced pop can uncover a straggler
// older than the last release horizon; the flag tells the auditor's Q3 that
// the front is not a release pass's until the next one runs.
TEST(RecoveryQueueTest, ForcedPopsAreFlaggedUntilTheNextRelease) {
  RecoveryQueue q(0);
  q.Push(1, 100, 50);  // a write whose clock GC advanced
  q.Push(2, 101, 10);  // the next page of the command, stamped earlier
  q.Push(3, 102, 60);
  std::size_t released = 0;
  q.ReleaseUpTo(20, [&](const BackupEntry&) { ++released; });
  EXPECT_EQ(released, 0u);  // the young front blocks the straggler
  EXPECT_FALSE(q.ForcedSinceRelease());
  ASSERT_TRUE(q.PopOldest().has_value());
  EXPECT_TRUE(q.ForcedSinceRelease());
  q.ReleaseUpTo(20, [&](const BackupEntry& e) {
    EXPECT_EQ(e.lba, 2u);
    ++released;
  });
  EXPECT_EQ(released, 1u);
  EXPECT_FALSE(q.ForcedSinceRelease());

  RecoveryQueue bounded(1);
  bounded.Push(1, 100, 1);
  EXPECT_FALSE(bounded.ForcedSinceRelease());
  EXPECT_TRUE(bounded.Push(2, 101, 2).evicted.has_value());
  EXPECT_TRUE(bounded.ForcedSinceRelease());
  EXPECT_TRUE(RecoveryQueue(bounded).ForcedSinceRelease());
  bounded.Clear();
  EXPECT_FALSE(bounded.ForcedSinceRelease());
}

TEST(RecoveryQueueTest, PackedEntryMatchesPaperTableIII) {
  EXPECT_EQ(RecoveryQueue::PackedEntryBytes(), 12u);
  EXPECT_EQ(RecoveryQueue::StoredEntryBytes(), 12u);
}

TEST(RecoveryQueueTest, ManyPushReleaseCyclesKeepIndexConsistent) {
  RecoveryQueue q(0);
  std::map<nand::Ppa, EntryId> ids;
  SimTime t = 0;
  nand::Ppa ppa = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      ids[ppa] = q.Push(static_cast<Lba>(i), ppa, t++).id;
      ++ppa;
    }
    q.ReleaseUpTo(t - 5, [](const BackupEntry&) {});
  }
  // Every remaining entry must still be guarded at its recorded PPA.
  q.ForEachWithId([&](EntryId id, const BackupEntry& e) {
    EXPECT_EQ(ids.at(e.old_ppa), id);
    EXPECT_TRUE(q.Guards(id, e.old_ppa));
  });
}

TEST(RecoveryQueueTest, ResidentBytesCountChunksNotEntries) {
  RecoveryQueue q(0);
  q.Push(1, 1, 1);
  const std::uint64_t one_chunk = q.ResidentBytes();
  EXPECT_GE(one_chunk,
            RecoveryQueue::kChunkEntries * RecoveryQueue::StoredEntryBytes());
  for (nand::Ppa p = 2; p <= RecoveryQueue::kChunkEntries; ++p) {
    q.Push(p, p, 1);
  }
  EXPECT_EQ(q.ResidentBytes(), one_chunk);  // the chunk is exactly full
  q.Push(0, 0, 1);
  EXPECT_GT(q.ResidentBytes(), one_chunk);
  q.Clear();
  // The ring keeps one closed chunk for reuse; nothing else.
  EXPECT_LT(q.ResidentBytes(), 2 * one_chunk);
}

TEST(RecoveryQueueTest, IdsSkipAllOnesAcrossTheWrap) {
  // Ids run mod 2^32 - 1: the id after 0xFFFFFFFE is 0, never the all-ones
  // value an empty P2L slot holds (which no entry could be found by).
  RecoveryQueue q(0);
  FtlStateTamperer::StartQueueIdsAt(q, kNoPageId - 3);
  std::vector<EntryId> ids;
  for (int k = 0; k < 8; ++k) {
    const auto p = static_cast<nand::Ppa>(k);
    ids.push_back(q.Push(p, 100 + p, Seconds(1) + Microseconds(k)).id);
  }
  EXPECT_EQ(ids, (std::vector<EntryId>{kNoPageId - 3, kNoPageId - 2,
                                       kNoPageId - 1, 0, 1, 2, 3, 4}));
  for (nand::Ppa p = 0; p < 8; ++p) EXPECT_TRUE(q.Guards(ids[p], 100 + p));
  EXPECT_EQ(q.Size(), 8u);

  // Relocate and drop on both sides of the wrap.
  EXPECT_TRUE(q.Relocate(ids[2], 102, 202));
  EXPECT_TRUE(q.Relocate(ids[3], 103, 203));
  EXPECT_TRUE(q.Guards(ids[2], 202));
  EXPECT_TRUE(q.Guards(ids[3], 203));
  EXPECT_TRUE(q.Drop(ids[1], 101));
  EXPECT_TRUE(q.Drop(ids[4], 104));
  EXPECT_FALSE(q.Guards(ids[1], 101));
  EXPECT_EQ(q.Size(), 6u);

  // Release the pre-wrap entries, roll back the newest two.
  std::vector<nand::Ppa> released;
  q.ReleaseUpTo(Seconds(1) + 2, [&](const BackupEntry& e) {
    released.push_back(e.old_ppa);
  });
  EXPECT_EQ(released, (std::vector<nand::Ppa>{100, 202}));
  std::vector<nand::Ppa> reverted;
  EXPECT_EQ(q.RollBack(Seconds(1) + 5,
                       [&](const BackupEntry& e) {
                         reverted.push_back(e.old_ppa);
                       }),
            2u);
  EXPECT_EQ(reverted, (std::vector<nand::Ppa>{107, 106}));
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_TRUE(q.Guards(ids[3], 203));
  EXPECT_TRUE(q.Guards(ids[5], 105));

  // The next push reuses the rolled-back slot's id, on the far side of the
  // wrap.
  EXPECT_EQ(q.Push(9, 109, Seconds(2)).id, ids[6]);
}

TEST(RecoveryQueueTest, TimesOutsideAChunksRangeOpenANewChunk) {
  // 32-bit offsets around a 64-bit chunk time: far-apart and backward
  // times must all come back exact.
  const std::vector<SimTime> times = {
      0,
      SimTime{1} << 40,                       // a gap >= 2^32 us
      (SimTime{1} << 40) - 5,                 // slightly back: same chunk
      (SimTime{1} << 40) - (SimTime{1} << 33),  // far back: a new chunk
      -(SimTime{1} << 35),                    // before every chunk so far
      std::numeric_limits<SimTime>::max(),
      std::numeric_limits<SimTime>::min(),
      7,
  };
  RecoveryQueue q(0);
  for (std::size_t i = 0; i < times.size(); ++i) q.Push(i, i, times[i]);
  std::vector<SimTime> seen;
  q.ForEach([&](const BackupEntry& e) { seen.push_back(e.written_at); });
  EXPECT_EQ(seen, times);
}

TEST(RecoveryQueueFtlTest, EntryIdsWrapInsideTheFtl) {
  // The FTL at the id wrap: overwrites push across it, GC relocates
  // retained pages and loses some to media errors, releases and forced
  // releases age entries out, and a rollback reverts the newest, while
  // retained pages' P2L slots hold ids from both sides of the wrap. The
  // auditor checks the entry <-> P2L round trip throughout.
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  cfg.errors.base_ber = 4e-4;  // GC reads fail now and then
  cfg.exported_fraction = 0.5;
  PageFtl ftl(cfg);
  FtlStateTamperer(ftl).StartQueueIdsAt(kNoPageId - 40);
  const Lba n = ftl.ExportedLbas();
  Rng rng(11);
  for (Lba lba = 0; lba < n; ++lba) {
    ASSERT_TRUE(ftl.WritePage(lba, {lba, {}}, Seconds(1)).ok());
  }
  SimTime t = Seconds(2);
  for (int i = 0; i < 1500; ++i) {
    t += Milliseconds(20);
    ASSERT_TRUE(
        ftl.WritePage(rng.Below(n), {static_cast<std::uint64_t>(i), {}}, t)
            .ok());
    if (i % 50 == 0) {
      ASSERT_EQ(ftl.CheckInvariants(), "") << "write " << i;
    }
  }
  EXPECT_GT(ftl.Stats().gc_retained_copies, 0u);
  EXPECT_GT(ftl.Stats().gc_lost_pages, 0u);
  EXPECT_GT(ftl.Stats().retained_released + ftl.Stats().forced_releases, 0u);
  EXPECT_GT(ftl.RecoveryQueueSize(), 0u);
  EXPECT_GE(ftl.RecoveryQueueHighWater(), ftl.RecoveryQueueSize());
  EXPECT_GT(ftl.RollBack(t).entries_reverted, 0u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

// --- Copies are values ------------------------------------------------------

bool SameEntry(const BackupEntry& a, const BackupEntry& b) {
  return a.lba == b.lba && a.old_ppa == b.old_ppa &&
         a.written_at == b.written_at;
}

bool SameEntry(const std::optional<BackupEntry>& a,
               const std::optional<BackupEntry>& b) {
  return a.has_value() == b.has_value() && (!a || SameEntry(*a, *b));
}

TEST(RecoveryQueueCopyTest, CopyIsIndependentOfItsSource) {
  // Checkpoints copy the queue: a copy taken mid-stream keeps working after
  // its source is gone, and it answers like a queue that was never copied.
  auto source = std::make_unique<RecoveryQueue>(0);
  RecoveryQueue uncopied(0);
  std::map<nand::Ppa, EntryId> ids;
  nand::Ppa next = 0;
  auto push_both = [&](SimTime t) {
    const EntryId id = source->Push(next % 997, next, t).id;
    EXPECT_EQ(uncopied.Push(next % 997, next, t).id, id);
    ids[next++] = id;
  };
  for (SimTime t = 0; t < 3 * RecoveryQueue::kChunkEntries; ++t) push_both(t);
  source->ReleaseUpTo(100, [](const BackupEntry&) {});
  uncopied.ReleaseUpTo(100, [](const BackupEntry&) {});

  RecoveryQueue first = *source;
  RecoveryQueue second(5);
  second = *source;
  // Mutate the source every way before dropping it.
  ASSERT_TRUE(source->Relocate(ids.at(500), 500, 1'000'000));
  ASSERT_TRUE(source->Drop(ids.at(600), 600));
  source->RollBack(2 * RecoveryQueue::kChunkEntries,
                   [](const BackupEntry&) {});
  source->PopOldest();
  source.reset();

  auto expect_like_uncopied = [&](const RecoveryQueue& q) {
    std::vector<std::pair<EntryId, BackupEntry>> got, want;
    q.ForEachWithId([&](EntryId id, const BackupEntry& e) {
      got.emplace_back(id, e);
    });
    uncopied.ForEachWithId([&](EntryId id, const BackupEntry& e) {
      want.emplace_back(id, e);
    });
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first);
      ASSERT_TRUE(SameEntry(got[i].second, want[i].second));
    }
    EXPECT_EQ(q.Size(), uncopied.Size());
    EXPECT_EQ(q.Capacity(), uncopied.Capacity());
  };
  expect_like_uncopied(first);
  expect_like_uncopied(second);
  // The copies keep working on their own.
  for (RecoveryQueue* q : {&first, &second, &uncopied}) {
    ASSERT_TRUE(q->Relocate(ids.at(700), 700, 2'000'000));
    ASSERT_TRUE(q->Drop(ids.at(800), 800));
    EXPECT_EQ(q->Push(1, next, Seconds(1)).id, ids.at(next - 1) + 1);
    q->RollBack(2 * RecoveryQueue::kChunkEntries + 10,
                [](const BackupEntry&) {});
    q->ReleaseUpTo(RecoveryQueue::kChunkEntries, [](const BackupEntry&) {});
  }
  expect_like_uncopied(first);
  expect_like_uncopied(second);
}

// --- Differential test against a reference model ---------------------------

/// The queue's contract spelled out with the obvious containers: entries
/// oldest-first, plus the set of guarded PPAs. A dropped entry stays queued
/// as a tombstone: it is never returned, but its time still stops a release
/// or rollback walk, which only matters when times are not monotone. Linear
/// scans are fine at the sizes below.
class ModelQueue {
 public:
  explicit ModelQueue(std::size_t capacity) : capacity_(capacity) {}

  std::optional<BackupEntry> Push(Lba lba, nand::Ppa ppa, SimTime now) {
    std::optional<BackupEntry> evicted;
    if (capacity_ != 0 && Live() >= capacity_) evicted = PopOldest();
    fifo_.push_back({BackupEntry{lba, ppa, now}, false});
    guards_.insert(ppa);
    return evicted;
  }
  std::vector<BackupEntry> ReleaseUpTo(SimTime horizon) {
    std::vector<BackupEntry> out;
    while (!fifo_.empty() && fifo_.front().e.written_at <= horizon) {
      const Slot s = fifo_.front();
      fifo_.pop_front();
      if (!s.dropped) out.push_back(Forget(s.e));
    }
    return out;
  }
  std::optional<BackupEntry> PopOldest() {
    while (!fifo_.empty()) {
      const Slot s = fifo_.front();
      fifo_.pop_front();
      if (!s.dropped) return Forget(s.e);
    }
    return std::nullopt;
  }
  bool Relocate(nand::Ppa from, nand::Ppa to) {
    for (Slot& s : fifo_) {
      if (s.dropped || s.e.old_ppa != from) continue;
      s.e.old_ppa = to;
      guards_.erase(from);
      guards_.insert(to);
      return true;
    }
    return false;
  }
  bool Drop(nand::Ppa ppa) {
    for (Slot& s : fifo_) {
      if (s.dropped || s.e.old_ppa != ppa) continue;
      s.dropped = true;
      guards_.erase(ppa);
      return true;
    }
    return false;
  }
  std::vector<BackupEntry> RollBack(SimTime horizon) {
    std::vector<BackupEntry> out;
    while (!fifo_.empty() && fifo_.back().e.written_at > horizon) {
      const Slot s = fifo_.back();
      fifo_.pop_back();
      if (!s.dropped) out.push_back(Forget(s.e));
    }
    return out;
  }
  void Clear() {
    fifo_.clear();
    guards_.clear();
  }

  std::vector<BackupEntry> Entries() const {
    std::vector<BackupEntry> out;
    for (const Slot& s : fifo_) {
      if (!s.dropped) out.push_back(s.e);
    }
    return out;
  }
  std::size_t Live() const { return guards_.size(); }
  bool Guards(nand::Ppa ppa) const { return guards_.contains(ppa); }

 private:
  struct Slot {
    BackupEntry e;
    bool dropped = false;
  };
  BackupEntry Forget(const BackupEntry& e) {
    guards_.erase(e.old_ppa);
    return e;
  }

  std::size_t capacity_;
  std::deque<Slot> fifo_;
  std::set<nand::Ppa> guards_;
};

/// How a differential run draws its push times.
enum class Clock {
  kSteady,  ///< small forward steps, ties included (the live path)
  /// Mostly steady, plus gaps >= 2^32 us, steps back past a chunk's base,
  /// and jumps to arbitrary (negative too) times: rebuild and rollback
  /// order, and clocks far from any chunk's base.
  kWild,
};

struct DiffCase {
  std::uint64_t seed = 1;
  std::size_t capacity = 0;
  nand::Ppa ppas = 48;  ///< small, so PPAs are reused constantly
  int steps = 3000;
  Clock clock = Clock::kSteady;
  /// Push-heavy runs keep thousands of entries live, so chunks fill and
  /// every operation meets chunk boundaries.
  bool push_heavy = false;
  std::optional<EntryId> start_id;  ///< set through the test-only friend
};

/// The id the FTL would hold in each page's P2L slot: written on push,
/// moved on relocate, left stale on release (as the FTL's slot is
/// overwritten by then, a stale id here must still read as unguarded).
using P2l = std::map<nand::Ppa, EntryId>;

/// Size, oldest-first order and Guards must all agree with the model.
/// Guards is checked for every PPA with a recorded id (guarded or stale),
/// through the id and through a neighbouring id.
void ExpectSame(const RecoveryQueue& q, const ModelQueue& m, const P2l& p2l,
                int step) {
  const std::vector<BackupEntry> want = m.Entries();
  ASSERT_EQ(q.Size(), want.size()) << "step " << step;
  std::vector<BackupEntry> live;
  q.ForEachWithId([&](EntryId id, const BackupEntry& e) {
    live.push_back(e);
    auto it = p2l.find(e.old_ppa);
    ASSERT_TRUE(it != p2l.end() && it->second == id)
        << "step " << step << " ppa " << e.old_ppa;
  });
  ASSERT_EQ(live.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(SameEntry(live[i], want[i]))
        << "step " << step << " entry " << i;
  }
  for (const auto& [ppa, id] : p2l) {
    ASSERT_EQ(q.Guards(id, ppa), m.Guards(ppa))
        << "step " << step << " ppa " << ppa << " id " << id;
    ASSERT_FALSE(q.Guards(id == 0 ? kNoPageId - 1 : id - 1, ppa));
    ASSERT_FALSE(q.Guards(kNoPageId, ppa));
  }
}

void RunDifferential(const DiffCase& c) {
  Rng rng(c.seed);
  RecoveryQueue q(c.capacity);
  if (c.start_id) FtlStateTamperer::StartQueueIdsAt(q, *c.start_id);
  ModelQueue m(c.capacity);
  P2l p2l;
  std::optional<RecoveryQueue> copy;
  std::optional<ModelQueue> copy_model;
  std::optional<P2l> copy_p2l;
  SimTime now = c.clock == Clock::kWild ? SimTime{1} << 36 : 0;
  auto unguarded = [&]() -> std::optional<nand::Ppa> {
    for (int tries = 0; tries < 16; ++tries) {
      auto p = static_cast<nand::Ppa>(rng.Below(c.ppas));
      if (!m.Guards(p)) return p;
    }
    return std::nullopt;
  };
  auto id_of = [&](nand::Ppa p) {
    auto it = p2l.find(p);
    return it == p2l.end() ? static_cast<EntryId>(rng.Below(kNoPageId + 1ull))
                           : it->second;
  };
  // Release horizons trail `now` by [release_lag, release_lag + 40) and
  // rollback horizons by [0, rollback_reach): push-heavy runs release only
  // entries thousands of pushes old and roll back only the newest few.
  const SimTime release_lag = c.push_heavy ? 6000 : 0;
  const SimTime rollback_reach = c.push_heavy ? 4 : 20;
  // Cumulative thresholds out of 100: push, release, pop, relocate, drop,
  // rollback; the rest clears.
  const std::uint64_t mix[6] = {c.push_heavy ? 62u : 45u,
                                c.push_heavy ? 66u : 60u,
                                c.push_heavy ? 69u : 66u,
                                c.push_heavy ? 84u : 82u,
                                c.push_heavy ? 94u : 92u,
                                c.push_heavy ? 100u : 99u};
  std::size_t max_live = 0;
  for (int step = 0; step < c.steps; ++step) {
    const std::uint64_t tick = rng.Below(100);
    if (c.clock == Clock::kSteady || tick < 80) {
      now += rng.BelowTime(3);  // ties included
    } else if (tick < 87) {
      now += (SimTime{1} << 32) + rng.BelowTime(SimTime{1} << 33);
    } else if (tick < 94) {
      now -= (SimTime{1} << 31) + rng.BelowTime(SimTime{1} << 32);
    } else {
      now = rng.BelowTime(SimTime{1} << 42) - (SimTime{1} << 41);
    }
    const std::uint64_t op = rng.Below(100);
    if (op < mix[0]) {
      if (std::optional<nand::Ppa> p = unguarded()) {
        auto lba = static_cast<Lba>(rng.Below(16));
        RecoveryQueue::Pushed pushed = q.Push(lba, *p, now);
        ASSERT_TRUE(SameEntry(pushed.evicted, m.Push(lba, *p, now)));
        ASSERT_NE(pushed.id, kNoPageId);
        p2l[*p] = pushed.id;
      }
    } else if (op < mix[1]) {
      const SimTime horizon = now - release_lag - rng.BelowTime(40);
      std::vector<BackupEntry> released;
      q.ReleaseUpTo(horizon,
                    [&](const BackupEntry& e) { released.push_back(e); });
      std::vector<BackupEntry> want = m.ReleaseUpTo(horizon);
      ASSERT_EQ(released.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(SameEntry(released[i], want[i]));
      }
    } else if (op < mix[2]) {
      ASSERT_TRUE(SameEntry(q.PopOldest(), m.PopOldest()));
    } else if (op < mix[3]) {
      // Relocate from any PPA (guarded or not) onto a free one; free PPAs
      // were often guarded, released or dropped earlier.
      auto from = static_cast<nand::Ppa>(rng.Below(c.ppas));
      if (std::optional<nand::Ppa> to = unguarded()) {
        const EntryId id = id_of(from);
        const bool moved = q.Relocate(id, from, *to);
        ASSERT_EQ(moved, m.Relocate(from, *to)) << "step " << step;
        if (moved) p2l[*to] = id;
      }
    } else if (op < mix[4]) {
      auto p = static_cast<nand::Ppa>(rng.Below(c.ppas));
      ASSERT_EQ(q.Drop(id_of(p), p), m.Drop(p)) << "step " << step;
    } else if (op < mix[5]) {
      const SimTime horizon = now - rng.BelowTime(rollback_reach);
      std::vector<BackupEntry> reverted;
      std::size_t n = q.RollBack(
          horizon, [&](const BackupEntry& e) { reverted.push_back(e); });
      std::vector<BackupEntry> want = m.RollBack(horizon);
      ASSERT_EQ(n, want.size());
      ASSERT_EQ(reverted.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(SameEntry(reverted[i], want[i]));
      }
    } else {
      q.Clear();
      m.Clear();
    }
    // The full sweep is O(PPAs); large runs sample it.
    max_live = std::max(max_live, q.Size());
    if (c.ppas <= 64 || step % 256 == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectSame(q, m, p2l, step));
    } else {
      ASSERT_EQ(q.Size(), m.Live()) << "step " << step;
    }
    if (step == c.steps / 2) {
      copy.emplace(q);  // copy construction
      copy_model.emplace(m);
      copy_p2l.emplace(p2l);
    }
  }
  // A copy taken mid-sequence is a deep copy: later operations on the
  // original left it as it was. Copy assignment must behave the same.
  ASSERT_TRUE(copy.has_value());
  ASSERT_NO_FATAL_FAILURE(ExpectSame(*copy, *copy_model, *copy_p2l, c.steps));
  RecoveryQueue assigned(c.capacity);
  assigned = *copy;
  ASSERT_NO_FATAL_FAILURE(
      ExpectSame(assigned, *copy_model, *copy_p2l, c.steps));
  ASSERT_NO_FATAL_FAILURE(ExpectSame(q, m, p2l, c.steps));
  // A steady push-heavy run pushes several chunks' worth of entries and
  // keeps about half a chunk live, so entries sit on both sides of each
  // chunk boundary the ids pass.
  if (c.push_heavy && c.clock == Clock::kSteady) {
    EXPECT_GE(max_live, std::min<std::size_t>(
                            c.capacity == 0 ? ~std::size_t{0} : c.capacity,
                            RecoveryQueue::kChunkEntries / 2));
  }
}

void RunSeeds(DiffCase c, std::uint64_t seeds) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(seed);
    c.seed = seed;
    // Every other seed starts its ids a few pushes before the wrap.
    c.start_id = seed % 2 == 0
                     ? std::optional<EntryId>(
                           static_cast<EntryId>(kNoPageId - 1 - seed))
                     : std::nullopt;
    ASSERT_NO_FATAL_FAILURE(RunDifferential(c));
  }
}

TEST(RecoveryQueueDiffTest, UnboundedMatchesModel) {
  RunSeeds(DiffCase{}, 20);
}

TEST(RecoveryQueueDiffTest, CapacityEvictionMatchesModel) {
  DiffCase c;
  c.capacity = 8;
  RunSeeds(c, 20);
}

TEST(RecoveryQueueDiffTest, WildClocksMatchModel) {
  // Push times >= 2^32 us, gaps >= 2^32 us between pushes, times that go
  // back past a chunk's base, and negative times.
  DiffCase c;
  c.clock = Clock::kWild;
  RunSeeds(c, 20);
  c.capacity = 8;
  RunSeeds(c, 10);
}

TEST(RecoveryQueueDiffTest, ChunkBoundariesMatchModel) {
  // Thousands of live entries: chunks fill, and Relocate, Drop,
  // ReleaseUpTo, PopOldest and RollBack all cross chunk boundaries, with
  // and without the capacity evicting across them.
  DiffCase c;
  c.ppas = 3 * RecoveryQueue::kChunkEntries;
  c.steps = 6 * static_cast<int>(RecoveryQueue::kChunkEntries);
  c.push_heavy = true;
  RunSeeds(c, 2);
  c.capacity = 2000;
  RunSeeds(c, 2);
  c.capacity = 0;
  c.clock = Clock::kWild;
  RunSeeds(c, 2);
}

}  // namespace
}  // namespace insider::ftl
