// Physical geometry of the simulated NAND flash array.
//
// The paper's prototype is an 8-channel x 8-way open-channel SSD. We model
// the same hierarchy: the array has `channels` buses, each bus connects
// `ways` chips, each chip holds `blocks_per_chip` erase blocks of
// `pages_per_block` pages. A physical page address (PPA) is a dense integer
// so the FTL mapping table is a flat array, exactly as in page-level FTLs.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

namespace insider::nand {

using Ppa = std::uint64_t;
inline constexpr Ppa kInvalidPpa = static_cast<Ppa>(-1);

struct BlockAddr {
  std::uint32_t chip = 0;
  std::uint32_t block = 0;

  friend bool operator==(const BlockAddr&, const BlockAddr&) = default;
};

struct Geometry {
  std::uint32_t channels = 8;
  std::uint32_t ways = 8;  ///< chips per channel
  std::uint32_t blocks_per_chip = 64;
  std::uint32_t pages_per_block = 64;
  std::uint32_t page_size = 4096;  ///< bytes; 4-KB pages as in the paper

  // Named presets ---------------------------------------------------------

  /// Unit-test shape: 2x2 chips, fast to fill and GC.
  static Geometry Toy() {
    return Geometry{.channels = 2,
                    .ways = 2,
                    .blocks_per_chip = 16,
                    .pages_per_block = 8,
                    .page_size = 4096};
  }
  /// The historical default every pre-paper-scale result ran on: 8x8 chips,
  /// 64x64 blocks/pages (16 MiB logical space per run).
  static Geometry Seed() { return Geometry{}; }
  /// The paper's prototype device shape: 8-channel x 8-way, 512 GiB of
  /// 4-KB pages (64 chips x 2048 blocks x 1024 pages).
  static Geometry PaperScale() {
    return Geometry{.channels = 8,
                    .ways = 8,
                    .blocks_per_chip = 2048,
                    .pages_per_block = 1024,
                    .page_size = 4096};
  }

  std::uint32_t TotalChips() const { return channels * ways; }
  std::uint64_t PagesPerChip() const {
    return static_cast<std::uint64_t>(blocks_per_chip) * pages_per_block;
  }
  std::uint64_t TotalBlocks() const {
    return static_cast<std::uint64_t>(TotalChips()) * blocks_per_chip;
  }
  std::uint64_t TotalPages() const {
    return static_cast<std::uint64_t>(TotalChips()) * PagesPerChip();
  }
  std::uint64_t CapacityBytes() const { return TotalPages() * page_size; }

  /// Dense PPA encoding: chip-major, then block, then page. Consecutive
  /// pages of one block stay adjacent, matching NAND's sequential-program
  /// constraint. PpaDecoder takes a PPA apart again.
  Ppa MakePpa(std::uint32_t chip, std::uint32_t block,
              std::uint32_t page) const {
    assert(chip < TotalChips());
    assert(block < blocks_per_chip);
    assert(page < pages_per_block);
    return (static_cast<Ppa>(chip) * blocks_per_chip + block) *
               pages_per_block +
           page;
  }

  bool ValidPpa(Ppa ppa) const { return ppa < TotalPages(); }
};

/// Small default geometry for unit tests: 2x2 chips, fast to fill and GC.
inline Geometry TestGeometry() { return Geometry::Toy(); }

/// Division by a divisor fixed at construction, done with one 64x64->128
/// multiply-high instead of a hardware divide. With m = floor((2^64 - 1) / d),
/// floor(n / d) = floor(m * (n + 1) / 2^64) holds exactly for every divisor
/// 1 <= d < 2^32 and dividend 0 <= n < 2^32: writing n = q*d + r, the product
/// is q + (r + 1)/d - eps with 0 < eps <= 2^-32 < 1/d. A validated geometry
/// keeps every PPA, block id and chip index below 2^32 (kPageIdOverflow), so
/// every dividend the decoder sees is in range.
class Reciprocal {
 public:
  /// A zero divisor (the all-zero geometry a rejected config is emptied to,
  /// which has no PPA to decode) gets a zero multiplier instead of a trap.
  explicit Reciprocal(std::uint32_t divisor)
      : divisor_(divisor),
        multiplier_(divisor == 0 ? 0 : ~std::uint64_t{0} / divisor) {}

  std::uint32_t Divisor() const { return divisor_; }
  /// n / Divisor() for n < 2^32.
  std::uint64_t Divide(std::uint64_t n) const {
    assert(n <= 0xFFFF'FFFFull);
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(multiplier_) * (n + 1)) >> 64);
  }
  /// n % Divisor() for n < 2^32.
  std::uint64_t Remainder(std::uint64_t n) const {
    return n - Divide(n) * divisor_;
  }

 private:
  std::uint32_t divisor_;
  std::uint64_t multiplier_;
};

/// The one owner of PPA decode: chip, block and page of a dense PPA, the
/// chip and in-chip index of a global block id (chip * blocks_per_chip +
/// block), and a chip's channel, each with one Reciprocal multiply instead
/// of a divide. The NAND array builds one for its geometry and the FTL, its
/// policies and its auditor decode through it (FlashArray::Decoder()).
/// Exact for every PPA of a geometry ValidateGeometry accepts.
class PpaDecoder {
 public:
  explicit PpaDecoder(const Geometry& g)
      : pages_per_block_(g.pages_per_block),
        blocks_per_chip_(g.blocks_per_chip),
        pages_per_chip_(static_cast<std::uint32_t>(g.PagesPerChip())),
        channels_(g.channels) {
    assert(g.PagesPerChip() <= 0xFFFF'FFFFull);
  }

  /// Global block id of the block holding `ppa` (ppa / pages_per_block).
  std::uint32_t BlockIdOf(Ppa ppa) const {
    return static_cast<std::uint32_t>(pages_per_block_.Divide(ppa));
  }
  /// Page index of `ppa` inside its block.
  std::uint32_t PageOf(Ppa ppa) const {
    return static_cast<std::uint32_t>(pages_per_block_.Remainder(ppa));
  }
  std::uint32_t ChipOf(Ppa ppa) const {
    return static_cast<std::uint32_t>(pages_per_chip_.Divide(ppa));
  }
  /// Block index of `ppa` inside its chip.
  std::uint32_t BlockOf(Ppa ppa) const {
    return static_cast<std::uint32_t>(
        blocks_per_chip_.Remainder(BlockIdOf(ppa)));
  }
  BlockAddr BlockAddrOf(Ppa ppa) const {
    return AddrOfBlockId(BlockIdOf(ppa));
  }

  /// Chip of a global block id.
  std::uint32_t ChipOfBlock(std::uint32_t block_id) const {
    return static_cast<std::uint32_t>(blocks_per_chip_.Divide(block_id));
  }
  BlockAddr AddrOfBlockId(std::uint32_t block_id) const {
    const std::uint32_t chip = ChipOfBlock(block_id);
    return {chip, block_id - chip * blocks_per_chip_.Divisor()};
  }

  /// Channel a chip hangs off: chips are striped channel-first so that
  /// consecutive chip indices alternate channels (maximizes bus parallelism
  /// for striped writes, as real controllers do).
  std::uint32_t ChannelOfChip(std::uint32_t chip) const {
    return static_cast<std::uint32_t>(channels_.Remainder(chip));
  }

 private:
  Reciprocal pages_per_block_;
  Reciprocal blocks_per_chip_;
  Reciprocal pages_per_chip_;
  Reciprocal channels_;
};

// Validation --------------------------------------------------------------
//
// Assert-free typed error reporting, mirroring ftl::RetentionConfigIssue:
// constructors and experiment configs call ValidateGeometry() up front and
// surface the issue instead of tripping an assert deep in PPA arithmetic.

enum class GeometryIssue : std::uint8_t {
  kNone,
  kZeroDimension,     ///< some dimension is 0; the address space is empty
  kPpaSpaceOverflow,  ///< TotalPages >= 2^63; dense PPA arithmetic unsafe
  kBlockIdOverflow,   ///< TotalBlocks >= 2^32; global block ids are 32-bit
  kCapacityOverflow,  ///< TotalPages * page_size overflows 64 bits
  /// TotalPages >= 2^32 - 1: the FTL's 32-bit page ids (all-ones = none)
  /// cannot name every page.
  kPageIdOverflow,
};

inline const char* ToString(GeometryIssue issue) {
  switch (issue) {
    case GeometryIssue::kNone: return "none";
    case GeometryIssue::kZeroDimension: return "zero-dimension";
    case GeometryIssue::kPpaSpaceOverflow: return "ppa-space-overflow";
    case GeometryIssue::kBlockIdOverflow: return "block-id-overflow";
    case GeometryIssue::kCapacityOverflow: return "capacity-overflow";
    case GeometryIssue::kPageIdOverflow: return "page-id-overflow";
  }
  return "unknown";
}

struct GeometryError {
  GeometryIssue issue = GeometryIssue::kNone;
  std::string detail;  ///< human-readable specifics for logs/tests

  bool ok() const { return issue == GeometryIssue::kNone; }
};

/// Check a shape before building anything on it. All intermediate products
/// are checked against 64-bit limits *before* they are computed, so the
/// validator itself never overflows.
inline GeometryError ValidateGeometry(const Geometry& g) {
  if (g.channels == 0 || g.ways == 0 || g.blocks_per_chip == 0 ||
      g.pages_per_block == 0 || g.page_size == 0) {
    return {GeometryIssue::kZeroDimension,
            "all of channels/ways/blocks_per_chip/pages_per_block/page_size "
            "must be nonzero"};
  }
  // u32 * u32 always fits in u64.
  std::uint64_t chips =
      static_cast<std::uint64_t>(g.channels) * g.ways;
  std::uint64_t pages_per_chip =
      static_cast<std::uint64_t>(g.blocks_per_chip) * g.pages_per_block;
  constexpr std::uint64_t kMaxPpaSpace = std::uint64_t{1} << 63;
  if (pages_per_chip > (kMaxPpaSpace - 1) / chips) {
    return {GeometryIssue::kPpaSpaceOverflow,
            "TotalPages would reach 2^63; dense PPA encoding requires "
            "chips * blocks_per_chip * pages_per_block < 2^63"};
  }
  std::uint64_t total_blocks =
      chips * g.blocks_per_chip;  // < 2^63 by the check above
  if (total_blocks > 0xFFFF'FFFFull) {
    return {GeometryIssue::kBlockIdOverflow,
            "TotalBlocks must fit a 32-bit global block id (victim policies "
            "and free-pool bookkeeping use uint32_t)"};
  }
  std::uint64_t total_pages = chips * pages_per_chip;
  if (total_pages > ~std::uint64_t{0} / g.page_size) {
    return {GeometryIssue::kCapacityOverflow,
            "CapacityBytes (TotalPages * page_size) overflows 64 bits"};
  }
  if (total_pages >= 0xFFFF'FFFFull) {
    return {GeometryIssue::kPageIdOverflow,
            "TotalPages must stay below 2^32 - 1: the FTL stores page ids "
            "in 32 bits with all-ones as the invalid id"};
  }
  return {};
}

}  // namespace insider::nand
