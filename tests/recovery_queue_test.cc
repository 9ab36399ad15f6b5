#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "ftl/recovery_queue.h"

namespace insider::ftl {
namespace {

constexpr std::size_t kPpas = 4096;  // id-table size for these tests

TEST(RecoveryQueueTest, StartsEmpty) {
  RecoveryQueue q(kPpas, 0);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(RecoveryQueueTest, PushGuardsPpa) {
  RecoveryQueue q(kPpas, 0);
  q.Push(10, 100, Seconds(1));
  EXPECT_TRUE(q.Guards(100));
  EXPECT_FALSE(q.Guards(101));
  EXPECT_EQ(q.Size(), 1u);
}

TEST(RecoveryQueueTest, ReleaseUpToHonorsHorizon) {
  RecoveryQueue q(kPpas, 0);
  q.Push(1, 100, Seconds(1));
  q.Push(2, 101, Seconds(2));
  q.Push(3, 102, Seconds(3));
  std::vector<Lba> released;
  q.ReleaseUpTo(Seconds(2),
                [&](const BackupEntry& e) { released.push_back(e.lba); });
  EXPECT_EQ(released, (std::vector<Lba>{1, 2}));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Guards(102));
  EXPECT_FALSE(q.Guards(100));
}

TEST(RecoveryQueueTest, CapacityEvictsOldest) {
  RecoveryQueue q(kPpas, 2);
  EXPECT_FALSE(q.Push(1, 100, 1).has_value());
  EXPECT_FALSE(q.Push(2, 101, 2).has_value());
  auto evicted = q.Push(3, 102, 3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->lba, 1u);
  EXPECT_EQ(evicted->old_ppa, 100u);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_FALSE(q.Guards(100));
}

TEST(RecoveryQueueTest, RelocateFollowsGc) {
  RecoveryQueue q(kPpas, 0);
  q.Push(5, 200, 10);
  EXPECT_TRUE(q.Relocate(200, 300));
  EXPECT_FALSE(q.Guards(200));
  EXPECT_TRUE(q.Guards(300));
  EXPECT_FALSE(q.Relocate(200, 400));  // already moved
  // Rollback must revert to the *new* location.
  std::size_t n = q.RollBack(0, [&](const BackupEntry& e) {
    EXPECT_EQ(e.old_ppa, 300u);
  });
  EXPECT_EQ(n, 1u);
}

TEST(RecoveryQueueTest, RelocateAfterPopMiddleOfQueue) {
  // Regression for the id/offset bookkeeping: relocate an entry after the
  // head has advanced.
  RecoveryQueue q(kPpas, 0);
  q.Push(1, 100, 1);
  q.Push(2, 101, 2);
  q.Push(3, 102, 3);
  q.ReleaseUpTo(1, [](const BackupEntry&) {});  // pop entry (1,100)
  EXPECT_TRUE(q.Relocate(102, 500));
  std::vector<nand::Ppa> ppas;
  q.ForEach([&](const BackupEntry& e) { ppas.push_back(e.old_ppa); });
  EXPECT_EQ(ppas, (std::vector<nand::Ppa>{101, 500}));
}

TEST(RecoveryQueueTest, RollBackNewestFirstStopsAtHorizon) {
  RecoveryQueue q(kPpas, 0);
  q.Push(1, 100, Seconds(1));
  q.Push(2, 101, Seconds(5));
  q.Push(3, 102, Seconds(9));
  std::vector<Lba> reverted;
  std::size_t n = q.RollBack(
      Seconds(4), [&](const BackupEntry& e) { reverted.push_back(e.lba); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(reverted, (std::vector<Lba>{3, 2}));  // newest first
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Guards(100));
}

TEST(RecoveryQueueTest, RollBackSameLbaChainEndsAtOldestVersion) {
  // LBA 7 overwritten three times within the window: the final revert must
  // leave the *oldest* (pre-window) version, exactly as Fig. 5 requires.
  RecoveryQueue q(kPpas, 0);
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
  RecoveryQueue q(kPpas, 0);
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

TEST(RecoveryQueueTest, PackedEntryMatchesPaperTableIII) {
  EXPECT_EQ(RecoveryQueue::PackedEntryBytes(), 12u);
}

TEST(RecoveryQueueTest, ManyPushReleaseCyclesKeepIndexConsistent) {
  RecoveryQueue q(kPpas, 0);
  SimTime t = 0;
  nand::Ppa ppa = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      q.Push(static_cast<Lba>(i), ppa++, t++);
    }
    q.ReleaseUpTo(t - 5, [](const BackupEntry&) {});
  }
  // Every remaining entry must still be guarded at its recorded PPA.
  q.ForEach([&](const BackupEntry& e) { EXPECT_TRUE(q.Guards(e.old_ppa)); });
}


// --- Differential test against a reference model ---------------------------

bool SameEntry(const BackupEntry& a, const BackupEntry& b) {
  return a.lba == b.lba && a.old_ppa == b.old_ppa &&
         a.written_at == b.written_at;
}

bool SameEntry(const std::optional<BackupEntry>& a,
               const std::optional<BackupEntry>& b) {
  return a.has_value() == b.has_value() && (!a || SameEntry(*a, *b));
}

/// The queue's contract spelled out with the obvious containers: live
/// entries oldest-first, plus the set of guarded PPAs. Linear scans are fine
/// at the sizes below.
class ModelQueue {
 public:
  explicit ModelQueue(std::size_t capacity) : capacity_(capacity) {}

  std::optional<BackupEntry> Push(Lba lba, nand::Ppa ppa, SimTime now) {
    std::optional<BackupEntry> evicted;
    if (capacity_ != 0 && fifo_.size() >= capacity_) evicted = PopOldest();
    fifo_.push_back(BackupEntry{lba, ppa, now});
    guards_[ppa] = lba;
    return evicted;
  }
  std::vector<BackupEntry> ReleaseUpTo(SimTime horizon) {
    std::vector<BackupEntry> out;
    while (!fifo_.empty() && fifo_.front().written_at <= horizon) {
      out.push_back(*PopOldest());
    }
    return out;
  }
  std::optional<BackupEntry> PopOldest() {
    if (fifo_.empty()) return std::nullopt;
    BackupEntry e = fifo_.front();
    fifo_.pop_front();
    guards_.erase(e.old_ppa);
    return e;
  }
  bool Relocate(nand::Ppa from, nand::Ppa to) {
    for (BackupEntry& e : fifo_) {
      if (e.old_ppa != from) continue;
      e.old_ppa = to;
      guards_.erase(from);
      guards_[to] = e.lba;
      return true;
    }
    return false;
  }
  bool Drop(nand::Ppa ppa) {
    for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
      if (it->old_ppa != ppa) continue;
      fifo_.erase(it);
      guards_.erase(ppa);
      return true;
    }
    return false;
  }
  std::vector<BackupEntry> RollBack(SimTime horizon) {
    std::vector<BackupEntry> out;
    while (!fifo_.empty() && fifo_.back().written_at > horizon) {
      out.push_back(fifo_.back());
      guards_.erase(fifo_.back().old_ppa);
      fifo_.pop_back();
    }
    return out;
  }
  void Clear() {
    fifo_.clear();
    guards_.clear();
  }

  const std::deque<BackupEntry>& Entries() const { return fifo_; }
  bool Guards(nand::Ppa ppa) const { return guards_.contains(ppa); }

 private:
  std::size_t capacity_;
  std::deque<BackupEntry> fifo_;
  std::map<nand::Ppa, Lba> guards_;
};

constexpr nand::Ppa kDiffPpas = 48;  // small, so PPAs are reused constantly

/// Size, oldest-first order and Guards over the whole PPA range (plus one
/// PPA past the table) must all agree with the model.
void ExpectSame(const RecoveryQueue& q, const ModelQueue& m, int step) {
  ASSERT_EQ(q.Size(), m.Entries().size()) << "step " << step;
  std::vector<BackupEntry> live;
  q.ForEach([&](const BackupEntry& e) { live.push_back(e); });
  ASSERT_EQ(live.size(), m.Entries().size()) << "step " << step;
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(SameEntry(live[i], m.Entries()[i]))
        << "step " << step << " entry " << i;
  }
  for (nand::Ppa p = 0; p <= kDiffPpas; ++p) {
    ASSERT_EQ(q.Guards(p), m.Guards(p)) << "step " << step << " ppa " << p;
  }
}

void RunDifferential(std::uint64_t seed, std::size_t capacity) {
  Rng rng(seed);
  RecoveryQueue q(kDiffPpas, capacity);
  ModelQueue m(capacity);
  std::optional<RecoveryQueue> copy;
  std::optional<ModelQueue> copy_model;
  SimTime now = 0;
  auto unguarded = [&]() -> std::optional<nand::Ppa> {
    for (int tries = 0; tries < 16; ++tries) {
      auto p = static_cast<nand::Ppa>(rng.Below(kDiffPpas));
      if (!m.Guards(p)) return p;
    }
    return std::nullopt;
  };
  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    now += rng.BelowTime(3);  // ties included
    const std::uint64_t op = rng.Below(100);
    if (op < 45) {
      if (std::optional<nand::Ppa> p = unguarded()) {
        auto lba = static_cast<Lba>(rng.Below(16));
        ASSERT_TRUE(SameEntry(q.Push(lba, *p, now), m.Push(lba, *p, now)));
      }
    } else if (op < 60) {
      const SimTime horizon = now - rng.BelowTime(40);
      std::vector<BackupEntry> released;
      q.ReleaseUpTo(horizon,
                    [&](const BackupEntry& e) { released.push_back(e); });
      std::vector<BackupEntry> want = m.ReleaseUpTo(horizon);
      ASSERT_EQ(released.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(SameEntry(released[i], want[i]));
      }
    } else if (op < 66) {
      ASSERT_TRUE(SameEntry(q.PopOldest(), m.PopOldest()));
    } else if (op < 82) {
      // Relocate from any PPA (guarded or not) onto a free one; free PPAs
      // were often guarded, released or dropped earlier.
      auto from = static_cast<nand::Ppa>(rng.Below(kDiffPpas));
      if (std::optional<nand::Ppa> to = unguarded()) {
        ASSERT_EQ(q.Relocate(from, *to), m.Relocate(from, *to));
      }
    } else if (op < 92) {
      auto p = static_cast<nand::Ppa>(rng.Below(kDiffPpas));
      ASSERT_EQ(q.Drop(p), m.Drop(p));
    } else if (op < 99) {
      const SimTime horizon = now - rng.BelowTime(20);
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
    ASSERT_NO_FATAL_FAILURE(ExpectSame(q, m, step));
    if (step == kSteps / 2) {
      copy.emplace(q);  // copy construction
      copy_model.emplace(m);
    }
  }
  // A copy taken mid-sequence is a deep copy: later operations on the
  // original left it as it was. Copy assignment must behave the same.
  ASSERT_TRUE(copy.has_value());
  ASSERT_NO_FATAL_FAILURE(ExpectSame(*copy, *copy_model, kSteps));
  RecoveryQueue assigned(kDiffPpas, capacity);
  assigned = *copy;
  ASSERT_NO_FATAL_FAILURE(ExpectSame(assigned, *copy_model, kSteps));
  ASSERT_NO_FATAL_FAILURE(ExpectSame(q, m, kSteps));
}

TEST(RecoveryQueueDiffTest, UnboundedMatchesModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(RunDifferential(seed, 0));
  }
}

TEST(RecoveryQueueDiffTest, CapacityEvictionMatchesModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(RunDifferential(seed, 8));
  }
}

}  // namespace
}  // namespace insider::ftl
