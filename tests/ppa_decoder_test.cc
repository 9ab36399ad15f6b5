// Exactness of the division-free PPA decode (nand::Reciprocal and
// nand::PpaDecoder) against plain integer division.
//
// The decoder replaces every hardware divide on the data path with one
// multiply-high, so it must agree with `/` and `%` for every dividend a
// validated geometry can produce (all below 2^32) and every divisor a
// geometry can have, powers of two or not.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"

namespace insider::nand {
namespace {

/// The last page id of the largest device ValidateGeometry accepts
/// (2^32 - 2 pages), and the largest dividend the decoder is exact for.
constexpr std::uint64_t kLargestPageId = 0xFFFF'FFFDull;
constexpr std::uint64_t kMaxDividend = 0xFFFF'FFFFull;

TEST(ReciprocalTest, ExactForEverySmallDivisorAtTheDividendEdges) {
  std::uint64_t mismatches = 0;
  std::uint64_t checks = 0;
  for (std::uint64_t d = 1; d <= (1u << 16); ++d) {
    const Reciprocal r(static_cast<std::uint32_t>(d));
    const std::uint64_t edges[] = {0,
                                   d - 1,
                                   d,
                                   d + 1,
                                   2 * d - 1,
                                   kLargestPageId,
                                   kLargestPageId + 1,
                                   kMaxDividend,
                                   kMaxDividend - kMaxDividend % d,
                                   kMaxDividend - kMaxDividend % d - 1};
    for (std::uint64_t n : edges) {
      ++checks;
      if (r.Divide(n) != n / d || r.Remainder(n) != n % d) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << n << " / " << d << ": got " << r.Divide(n)
                        << " rem " << r.Remainder(n);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " checks";
}

TEST(ReciprocalTest, ExactForRandomDivisorsAndDividendsBelow2To32) {
  Rng rng(0xd1d1de);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    // Half the divisors small, half anywhere in [1, 2^32).
    const std::uint64_t d = i % 2 == 0 ? 1 + rng.Below(1u << 16)
                                       : 1 + rng.Below(kMaxDividend);
    const std::uint64_t n = rng.Below(kMaxDividend + 1);
    const Reciprocal r(static_cast<std::uint32_t>(d));
    if (r.Divide(n) != n / d || r.Remainder(n) != n % d) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ReciprocalTest, LargestDivisorsAtTheirEdges) {
  for (std::uint64_t d : {kMaxDividend, kMaxDividend - 1, kLargestPageId,
                          std::uint64_t{1} << 31, (std::uint64_t{1} << 31) - 1,
                          (std::uint64_t{1} << 31) + 1}) {
    const Reciprocal r(static_cast<std::uint32_t>(d));
    for (std::uint64_t n : {std::uint64_t{0}, d - 1, d, kLargestPageId,
                            kMaxDividend}) {
      if (n > kMaxDividend) continue;
      EXPECT_EQ(r.Divide(n), n / d) << n << " / " << d;
      EXPECT_EQ(r.Remainder(n), n % d) << n << " % " << d;
    }
  }
}

/// Every decode of `ppa` agrees with the division it replaces.
void ExpectDecodes(const Geometry& g, const PpaDecoder& d, Ppa ppa) {
  const std::uint64_t ppb = g.pages_per_block;
  const std::uint64_t bpc = g.blocks_per_chip;
  ASSERT_EQ(d.BlockIdOf(ppa), ppa / ppb) << ppa;
  ASSERT_EQ(d.PageOf(ppa), ppa % ppb) << ppa;
  ASSERT_EQ(d.ChipOf(ppa), ppa / g.PagesPerChip()) << ppa;
  ASSERT_EQ(d.BlockOf(ppa), (ppa / ppb) % bpc) << ppa;
  const std::uint32_t block_id = d.BlockIdOf(ppa);
  ASSERT_EQ(d.ChipOfBlock(block_id), block_id / bpc) << block_id;
  const BlockAddr addr = d.AddrOfBlockId(block_id);
  ASSERT_EQ(addr, d.BlockAddrOf(ppa));
  ASSERT_EQ(g.MakePpa(addr.chip, addr.block, d.PageOf(ppa)), ppa);
  ASSERT_EQ(d.ChannelOfChip(addr.chip), addr.chip % g.channels);
}

/// MakePpa -> decode round trip over every (chip, block, page).
void ExpectExhaustiveRoundTrip(const Geometry& g) {
  ASSERT_TRUE(ValidateGeometry(g).ok());
  const PpaDecoder d(g);
  Ppa expected = 0;
  for (std::uint32_t chip = 0; chip < g.TotalChips(); ++chip) {
    for (std::uint32_t block = 0; block < g.blocks_per_chip; ++block) {
      for (std::uint32_t page = 0; page < g.pages_per_block; ++page) {
        const Ppa ppa = g.MakePpa(chip, block, page);
        ASSERT_EQ(ppa, expected++);
        ASSERT_EQ(d.ChipOf(ppa), chip);
        ASSERT_EQ(d.BlockOf(ppa), block);
        ASSERT_EQ(d.PageOf(ppa), page);
        ASSERT_EQ(d.BlockIdOf(ppa), chip * g.blocks_per_chip + block);
        ASSERT_EQ(d.AddrOfBlockId(d.BlockIdOf(ppa)), (BlockAddr{chip, block}));
      }
    }
  }
}

TEST(PpaDecoderTest, RoundTripsOnTheExamplesNonPowerOfTwoShapes) {
  // quickstart: 160 blocks per chip; filesystem_recovery: 96.
  for (std::uint32_t blocks : {160u, 96u}) {
    ExpectExhaustiveRoundTrip(Geometry{.channels = 2,
                                       .ways = 2,
                                       .blocks_per_chip = blocks,
                                       .pages_per_block = 64,
                                       .page_size = 4096});
  }
}

TEST(PpaDecoderTest, RoundTripsOnThreeByFiveChips) {
  ExpectExhaustiveRoundTrip(Geometry{.channels = 3,
                                     .ways = 5,
                                     .blocks_per_chip = 7,
                                     .pages_per_block = 11,
                                     .page_size = 4096});
  ExpectExhaustiveRoundTrip(Geometry{.channels = 5,
                                     .ways = 3,
                                     .blocks_per_chip = 96,
                                     .pages_per_block = 24,
                                     .page_size = 4096});
}

TEST(PpaDecoderTest, LargestAcceptedPageCount) {
  // 2^32 - 2 = 2 x (2^31 - 1) pages, the most ValidateGeometry accepts,
  // split every way it factors (2^31 - 1 is prime).
  const Geometry shapes[] = {
      {.channels = 1, .ways = 1, .blocks_per_chip = 1,
       .pages_per_block = 0xFFFF'FFFEu, .page_size = 1},
      {.channels = 1, .ways = 1, .blocks_per_chip = 2,
       .pages_per_block = 0x7FFF'FFFFu, .page_size = 1},
      {.channels = 1, .ways = 1, .blocks_per_chip = 0x7FFF'FFFFu,
       .pages_per_block = 2, .page_size = 1},
      {.channels = 2, .ways = 1, .blocks_per_chip = 1,
       .pages_per_block = 0x7FFF'FFFFu, .page_size = 1},
      {.channels = 1, .ways = 2, .blocks_per_chip = 0x7FFF'FFFFu,
       .pages_per_block = 1, .page_size = 1},
  };
  Rng rng(0x1a29e);
  for (const Geometry& g : shapes) {
    ASSERT_EQ(g.TotalPages(), 0xFFFF'FFFEull);
    ASSERT_TRUE(ValidateGeometry(g).ok()) << ValidateGeometry(g).detail;
    const PpaDecoder d(g);
    const Ppa last = g.TotalPages() - 1;
    for (Ppa ppa : {Ppa{0}, Ppa{1}, last - 1, last,
                    Ppa{g.pages_per_block} - 1, Ppa{g.pages_per_block},
                    g.PagesPerChip() - 1, g.PagesPerChip() % g.TotalPages()}) {
      if (ppa > last) continue;
      ExpectDecodes(g, d, ppa);
    }
    for (int i = 0; i < 20'000; ++i) ExpectDecodes(g, d, rng.Below(last + 1));
  }
  // One page more is rejected: 2^32 - 1 pages would need the all-ones id.
  const Geometry over{.channels = 1, .ways = 1, .blocks_per_chip = 1,
                      .pages_per_block = 0xFFFF'FFFFu, .page_size = 1};
  EXPECT_EQ(ValidateGeometry(over).issue, GeometryIssue::kPageIdOverflow);
}

TEST(PpaDecoderTest, PresetsDecodeLikeDivision) {
  Rng rng(0x9e0);
  for (const Geometry& g :
       {Geometry::Toy(), Geometry::Seed(), Geometry::PaperScale()}) {
    const PpaDecoder d(g);
    for (Ppa ppa : {Ppa{0}, g.TotalPages() - 1}) ExpectDecodes(g, d, ppa);
    for (int i = 0; i < 20'000; ++i) {
      ExpectDecodes(g, d, rng.Below(g.TotalPages()));
    }
  }
}

TEST(PpaDecoderTest, FlashArrayDecodesThroughItsGeometry) {
  const Geometry g{.channels = 3,
                   .ways = 5,
                   .blocks_per_chip = 6,
                   .pages_per_block = 10,
                   .page_size = 4096};
  FlashArray nand(g);
  // Program the first page of every block of chip 7 and read each back by
  // PPA: the array must land each program in the block the PPA names.
  for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
    ASSERT_TRUE(nand.ProgramPage(g.MakePpa(7, b, 0), {100u + b, {}}, 0).ok());
  }
  for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
    const std::uint64_t id = 7ull * g.blocks_per_chip + b;
    EXPECT_EQ(nand.BlockAt(id).WritePointer(), 1u);
    std::optional<PageView> v = nand.PeekPage(g.MakePpa(7, b, 0));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->stamp, 100u + b);
    EXPECT_TRUE(nand.IsProgrammed(g.MakePpa(7, b, 0)));
    EXPECT_FALSE(nand.IsProgrammed(g.MakePpa(7, b, 1)));
  }
}

}  // namespace
}  // namespace insider::nand
