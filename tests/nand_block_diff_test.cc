// Differential test of NAND page storage: the packed-record block must
// answer every question the original block answered. The original (one
// 64-byte PageData per page: stamp, owned byte vector, OOB) lives on here
// only, as the reference; random sequences of programs, burns, erases and
// rule-breaking attempts go through both, and every page is compared after
// every operation. A FlashArray case then checks the GC copy pattern:
// programming a page straight from another page's read view.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nand/block.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider::nand {
namespace {

/// The original block, kept verbatim in behaviour.
class ReferenceBlock {
 public:
  explicit ReferenceBlock(std::uint32_t pages_per_block)
      : pages_per_block_(pages_per_block) {}

  std::uint32_t WritePointer() const { return write_ptr_; }
  bool IsFull() const { return write_ptr_ == pages_per_block_; }
  std::uint64_t EraseCount() const { return erase_count_; }
  bool IsProgrammed(std::uint32_t page) const { return page < write_ptr_; }
  bool Materialized() const { return pages_ != nullptr; }

  bool Program(std::uint32_t page, PageData data) {
    if (page != write_ptr_ || IsFull()) return false;
    Materialize();
    pages_[page] = std::move(data);
    ++write_ptr_;
    return true;
  }

  bool BurnPage(std::uint32_t page) {
    if (page != write_ptr_ || IsFull()) return false;
    Materialize();
    if (bad_ == nullptr) bad_ = std::make_unique<std::uint64_t[]>(BadWords());
    pages_[page] = PageData{};
    bad_[page / 64] |= std::uint64_t{1} << (page % 64);
    ++write_ptr_;
    return true;
  }

  bool IsBadPage(std::uint32_t page) const {
    return page < write_ptr_ && bad_ != nullptr &&
           ((bad_[page / 64] >> (page % 64)) & 1u) != 0;
  }

  const PageData* Read(std::uint32_t page) const {
    if (!IsProgrammed(page) || IsBadPage(page)) return nullptr;
    return &pages_[page];
  }

  void Erase() {
    for (std::uint32_t i = 0; i < write_ptr_; ++i) pages_[i] = PageData{};
    bad_.reset();
    write_ptr_ = 0;
    ++erase_count_;
  }

 private:
  void Materialize() {
    if (pages_ == nullptr) {
      pages_ = std::make_unique<PageData[]>(pages_per_block_);
    }
  }
  std::uint32_t BadWords() const { return (pages_per_block_ + 63) / 64; }

  std::unique_ptr<PageData[]> pages_;
  std::unique_ptr<std::uint64_t[]> bad_;
  std::uint32_t pages_per_block_ = 0;
  std::uint32_t write_ptr_ = 0;
  std::uint64_t erase_count_ = 0;
};

/// Random page contents drawn so that collisions happen: a few stamps, a few
/// payload shapes (none, empty, odd length, page size, a copy of an earlier
/// payload), OOB fields at their extremes and tombstones.
class PageSource {
 public:
  PageSource(std::uint64_t seed, std::uint32_t page_size)
      : rng_(seed), page_size_(page_size) {}

  PageData Next() {
    PageData d;
    d.stamp = rng_.Below(4);
    switch (rng_.Below(6)) {
      case 0:
        break;  // stamp only
      case 1:
        d.bytes = {};  // explicitly empty: same as no payload
        break;
      case 2:
        d.bytes = Bytes(1 + 2 * rng_.Below(20));  // odd length
        break;
      case 3:
        d.bytes = Bytes(page_size_);
        break;
      default:
        if (!seen_.empty()) {
          d.bytes = seen_[rng_.Below(seen_.size())];
        } else {
          d.bytes = Bytes(page_size_);
        }
        break;
    }
    if (!d.bytes.empty()) seen_.push_back(d.bytes);
    const std::uint64_t kSeqMax = (std::uint64_t{1} << 63) - 1;
    switch (rng_.Below(3)) {
      case 0:
        break;  // raw NAND write: default OOB
      case 1:
        d.oob = {rng_.Below(16), 1 + rng_.Below(1000),
                 rng_.BelowTime(SimTime{1} << 20),
                 rng_.Chance(0.3)};
        break;
      default:
        d.oob = {std::numeric_limits<std::uint64_t>::max() - rng_.Below(2),
                 kSeqMax - rng_.Below(2),
                 rng_.Chance(0.5) ? std::numeric_limits<SimTime>::min()
                                  : std::numeric_limits<SimTime>::max(),
                 rng_.Chance(0.5)};
        break;
    }
    return d;
  }

  Rng& R() { return rng_; }

 private:
  std::vector<std::byte> Bytes(std::size_t n) {
    std::vector<std::byte> out(n);
    // Only a few distinct fills, so equal-length payloads sometimes match.
    const std::uint64_t fill = rng_.Below(3);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>((fill * 131 + i * (fill + 1)) & 0xFF);
    }
    return out;
  }

  Rng rng_;
  std::uint32_t page_size_;
  std::vector<std::vector<std::byte>> seen_;
};

std::string Where(std::uint64_t seed, int op, std::uint32_t page) {
  return "seed " + std::to_string(seed) + " op " + std::to_string(op) +
         " page " + std::to_string(page);
}

void ExpectSameState(const Block& got, const ReferenceBlock& want,
                     std::uint32_t pages, std::uint64_t seed, int op) {
  ASSERT_EQ(got.WritePointer(), want.WritePointer()) << Where(seed, op, 0);
  ASSERT_EQ(got.IsFull(), want.IsFull()) << Where(seed, op, 0);
  ASSERT_EQ(got.EraseCount(), want.EraseCount()) << Where(seed, op, 0);
  ASSERT_EQ(got.Materialized(), want.Materialized()) << Where(seed, op, 0);
  for (std::uint32_t p = 0; p < pages + 2; ++p) {  // also past the end
    ASSERT_EQ(got.IsProgrammed(p), want.IsProgrammed(p)) << Where(seed, op, p);
    ASSERT_EQ(got.IsBadPage(p), want.IsBadPage(p)) << Where(seed, op, p);
    const std::optional<PageView> g = got.Read(p);
    const PageData* w = want.Read(p);
    ASSERT_EQ(g.has_value(), w != nullptr) << Where(seed, op, p);
    if (w == nullptr) continue;
    EXPECT_EQ(g->stamp, w->stamp) << Where(seed, op, p);
    EXPECT_EQ(g->oob.lba, w->oob.lba) << Where(seed, op, p);
    EXPECT_EQ(g->oob.seq, w->oob.seq) << Where(seed, op, p);
    EXPECT_EQ(g->oob.written_at, w->oob.written_at) << Where(seed, op, p);
    EXPECT_EQ(g->oob.tombstone, w->oob.tombstone) << Where(seed, op, p);
    ASSERT_TRUE(std::ranges::equal(g->bytes, w->bytes)) << Where(seed, op, p);
    EXPECT_EQ(PageData(*g), *w) << Where(seed, op, p);
  }
  for (std::uint32_t p = 0; p < want.WritePointer(); ++p) {
    const std::optional<PageView> g = got.Read(p);
    const PageData* w = want.Read(p);
    if (w == nullptr) continue;
    for (std::uint32_t q = 0; q < want.WritePointer(); ++q) {
      const PageData* wq = want.Read(q);
      if (wq == nullptr) continue;
      ASSERT_EQ(g->SamePayload(*got.Read(q)),
                w->stamp == wq->stamp && w->bytes == wq->bytes)
          << Where(seed, op, p) << " vs page " << q;
    }
  }
}

void RunRandomBlock(std::uint64_t seed, std::uint32_t pages, int ops) {
  Block got(pages);
  ReferenceBlock want(pages);
  PageSource source(seed, 4096);
  Rng& rng = source.R();
  ExpectSameState(got, want, pages, seed, -1);
  for (int op = 0; op < ops; ++op) {
    // Mostly legal programs; some burns, erases and rule violations (wrong
    // page, full block), which both blocks must reject identically.
    const std::uint32_t page = rng.Chance(0.85)
                                   ? want.WritePointer()
                                   : static_cast<std::uint32_t>(
                                         rng.Below(pages + 1));
    const std::uint64_t kind = rng.Below(20);
    if (kind < 14) {
      PageData d = source.Next();
      const bool ok = got.Program(page, d);
      ASSERT_EQ(ok, want.Program(page, d)) << Where(seed, op, page);
    } else if (kind < 17) {
      const bool ok = got.BurnPage(page);
      ASSERT_EQ(ok, want.BurnPage(page)) << Where(seed, op, page);
    } else {
      got.Erase();
      want.Erase();
    }
    ExpectSameState(got, want, pages, seed, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NandBlockDiffTest, ToyBlocksMatchTheReferenceOverManySeeds) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RunRandomBlock(seed, Geometry::Toy().pages_per_block, 120);
    if (HasFatalFailure()) return;
  }
}

TEST(NandBlockDiffTest, MultiWordBadBitmapMatchesTheReference) {
  // 70 pages: the bad-page bitmap spans two words.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRandomBlock(seed * 7919, 70, 200);
    if (HasFatalFailure()) return;
  }
}

TEST(NandBlockDiffTest, ViewsStayValidUntilErase) {
  // Payload bytes must not move while later pages of the same block are
  // programmed, even pages copied from that block's own views.
  Block b(64);
  std::vector<std::byte> first(4096);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<std::byte>(i * 7);
  }
  ASSERT_TRUE(b.Program(0, PageData{1, first}));
  const std::optional<PageView> held = b.Read(0);
  ASSERT_TRUE(held.has_value());
  const std::byte* where = held->bytes.data();
  for (std::uint32_t p = 1; p < 64; ++p) {
    ASSERT_TRUE(b.Program(p, *b.Read(p - 1)));
  }
  EXPECT_EQ(held->bytes.data(), where);
  EXPECT_TRUE(std::ranges::equal(held->bytes, first));
  EXPECT_TRUE(std::ranges::equal(b.Read(63)->bytes, first));
  EXPECT_TRUE(b.Read(63)->SamePayload(*held));
}

TEST(NandBlockDiffTest, GcStyleCopyFromAViewSurvivesTheSourceErase) {
  const Geometry geo = Geometry::Toy();
  FlashArray array(geo, LatencyModel::Zero());
  std::vector<std::byte> payload(geo.page_size);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 31 + 5) & 0xFF);
  }
  const std::vector<std::byte> odd(payload.begin(), payload.begin() + 77);
  const Ppa src0 = geo.MakePpa(0, 1, 0);
  const Ppa src1 = geo.MakePpa(0, 1, 1);
  ASSERT_TRUE(array.ProgramPage(src0, PageData{9, payload, {5, 1, 100, false}},
                                0)
                  .ok());
  ASSERT_TRUE(array.ProgramPage(src1, PageData{8, odd, {6, 2, 200, true}}, 0)
                  .ok());

  // GC: read the source, keep its identity, give it a fresh sequence number
  // and program the view itself into another block.
  const Ppa dst0 = geo.MakePpa(1, 3, 0);
  const Ppa dst1 = geo.MakePpa(1, 3, 1);
  std::uint64_t seq = 10;
  for (auto [src, dst] : {std::pair{src0, dst0}, std::pair{src1, dst1}}) {
    NandResult rd = array.ReadPage(src, 0);
    ASSERT_TRUE(rd.ok());
    ASSERT_TRUE(rd.data.has_value());
    PageView copy = *rd.data;
    copy.oob.seq = ++seq;
    ASSERT_TRUE(array.ProgramPage(dst, copy, 0).ok());
  }
  ASSERT_TRUE(array.EraseBlock({0, 1}, 0).ok());
  EXPECT_FALSE(array.PeekPage(src0).has_value());

  const std::optional<PageView> got0 = array.PeekPage(dst0);
  ASSERT_TRUE(got0.has_value());
  EXPECT_EQ(got0->stamp, 9u);
  EXPECT_EQ(got0->oob, (PageOob{5, 11, 100, false}));
  EXPECT_TRUE(std::ranges::equal(got0->bytes, payload));
  const std::optional<PageView> got1 = array.PeekPage(dst1);
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(got1->stamp, 8u);
  EXPECT_EQ(got1->oob, (PageOob{6, 12, 200, true}));
  EXPECT_TRUE(std::ranges::equal(got1->bytes, odd));
  EXPECT_FALSE(got0->SamePayload(*got1));
}

}  // namespace
}  // namespace insider::nand
