// Pluggable FTL policies.
//
// The mapping core (page_ftl.h) keeps the translation state and the I/O
// mechanics; *what* to do with the freedom those mechanics leave — which
// chip's write frontier supplies the next page, which full block GC should
// reclaim — is delegated to two small policy interfaces, the way
// log-structured systems expose selectable cleaning policies (LightNVM
// targets, F2FS victim selection).
//
// Policies see the core through PolicyView, a read-only window over the
// FTL's per-block counters, the greedy victim index (victim_index.h), the
// allocation frontiers, and the NAND array's flat block vector for
// wear/fullness facts. Policies hold their own cursor/state but never
// mutate the core; the core and the GC engine apply their decisions.
//
// The default implementations reproduce the pre-refactor monolith decision
// for decision (the gc_policy parity test pins this stat-for-stat).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ftl/ftl_types.h"
#include "ftl/victim_index.h"
#include "nand/flash_array.h"

namespace insider::ftl {

/// No reclaimable block satisfied the victim constraints.
inline constexpr std::uint32_t kNoVictim = VictimIndex::kNone;

/// Read-only window onto the mapping core for policy decisions. Cheap,
/// non-virtual accessors over flat arrays: allocation runs once per page
/// program, so this sits on hot paths.
class PolicyView {
 public:
  PolicyView(const nand::Geometry& geometry, const nand::FlashArray& nand,
             const VictimIndex& victims,
             const std::vector<BlockCounters>& block_counters,
             const std::vector<std::uint32_t>& active_block_per_chip,
             const std::vector<std::vector<std::uint32_t>>& free_blocks_by_chip,
             const std::vector<BlockHealth>& block_health,
             const std::vector<std::uint64_t>& ready_chips)
      : geometry_(geometry), nand_(nand), victims_(victims),
        block_counters_(block_counters),
        active_block_per_chip_(active_block_per_chip),
        free_blocks_by_chip_(free_blocks_by_chip),
        block_health_(block_health), ready_chips_(ready_chips) {}

  const nand::Geometry& Geo() const { return geometry_; }
  std::uint32_t TotalBlocks() const {
    return static_cast<std::uint32_t>(geometry_.TotalBlocks());
  }

  // Victim-selection side ------------------------------------------------

  /// Pages GC would have to copy to reclaim this block.
  std::uint32_t MovablePages(std::uint32_t block_id) const {
    return block_counters_[block_id].Movable();
  }
  /// Only full blocks are reclaimable (their write frontier is closed).
  bool IsFull(std::uint32_t block_id) const {
    return nand_.BlockAt(block_id).IsFull();
  }
  /// An active block is some chip's open write frontier; GC must skip it.
  bool IsActive(std::uint32_t block_id) const {
    return active_block_per_chip_[nand_.Decoder().ChipOfBlock(block_id)] ==
           block_id;
  }
  std::uint64_t EraseCount(std::uint32_t block_id) const {
    return nand_.BlockAt(block_id).EraseCount();
  }
  /// Grown bad blocks — retired or awaiting retirement — are handled by the
  /// retirement drain, never offered to GC as victims. Reserved metadata
  /// blocks (checkpoint buffers / journal regions) never hold host data and
  /// are equally off-limits.
  bool IsOutOfService(std::uint32_t block_id) const {
    return block_health_[block_id] != BlockHealth::kHealthy ||
           nand_.IsMetadataBlock(block_id);
  }
  /// The greedy choice among reclaimable blocks (full, not a frontier, in
  /// service) with at most `max_movable` movable pages: fewest movable
  /// pages, then fewest erases, then lowest id. Answered from the victim
  /// index without visiting other blocks; kNoVictim when none qualifies.
  std::uint32_t GreedyVictim(std::uint32_t max_movable) const {
    return victims_.Lowest(max_movable);
  }

  // Allocation side ------------------------------------------------------

  std::uint32_t ChipCount() const { return geometry_.TotalChips(); }
  /// Can this chip supply a programmable page right now — either its active
  /// block has room or a free block is available to open?
  bool ChipCanAllocate(std::uint32_t chip) const {
    std::uint32_t active = active_block_per_chip_[chip];
    if (active != kNoActiveBlockId && !nand_.BlockAt(active).IsFull()) {
      return true;
    }
    return !free_blocks_by_chip_[chip].empty();
  }
  /// The FTL's cached ChipCanAllocate(chip): one bit per chip, updated
  /// wherever a frontier fills or opens and wherever a free pool changes
  /// (the invariant auditor cross-checks the two).
  bool ChipReady(std::uint32_t chip) const {
    return (ready_chips_[chip / 64] >> (chip % 64) & 1) != 0;
  }
  /// The first chip at or after `from`, wrapping past the last chip, whose
  /// ready bit is set; nullopt when no chip can allocate. The same answer
  /// as probing ChipCanAllocate from `from` onwards, in O(chips / 64).
  std::optional<std::uint32_t> NextReadyChip(std::uint32_t from) const {
    const std::size_t words = ready_chips_.size();
    if (words == 0) return std::nullopt;
    std::size_t w = from / 64;
    std::uint64_t bits = ready_chips_[w] & (~std::uint64_t{0} << (from % 64));
    // The start word's upper bits, every other word, then the start word
    // whole (its bits at or above `from` are known clear by then).
    for (std::size_t i = 0; i <= words; ++i) {
      if (bits != 0) {
        return static_cast<std::uint32_t>(w * 64) +
               static_cast<std::uint32_t>(std::countr_zero(bits));
      }
      w = w + 1 == words ? 0 : w + 1;
      bits = ready_chips_[w];
    }
    return std::nullopt;
  }

  static constexpr std::uint32_t kNoActiveBlockId = 0xFFFFFFFFu;

 private:
  const nand::Geometry& geometry_;
  const nand::FlashArray& nand_;
  const VictimIndex& victims_;
  const std::vector<BlockCounters>& block_counters_;
  const std::vector<std::uint32_t>& active_block_per_chip_;
  const std::vector<std::vector<std::uint32_t>>& free_blocks_by_chip_;
  const std::vector<BlockHealth>& block_health_;
  const std::vector<std::uint64_t>& ready_chips_;
};

// ---------------------------------------------------------------------------
// Allocation policy: which chip's write frontier takes the next page.

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  virtual const char* Name() const = 0;

  /// Chip to allocate the next page from, or nullopt when no chip can
  /// allocate (device full). Called once per page program — host writes and
  /// GC relocation share one policy instance, so one frontier cursor.
  virtual std::optional<std::uint32_t> NextChip(const PolicyView& view) = 0;
};

/// Round-robin chip striping: consecutive allocations walk the chips so a
/// burst of writes spreads across every channel/way, the way a real
/// controller exploits array parallelism. Chips that are full (no room, no
/// free block) are skipped without losing the cursor's fairness: the next
/// chip is the first ready one at or after the cursor, read off the FTL's
/// ready bitmap (PolicyView::NextReadyChip) instead of probed chip by chip.
class StripedAllocationPolicy final : public AllocationPolicy {
 public:
  const char* Name() const override { return "striped"; }
  std::optional<std::uint32_t> NextChip(const PolicyView& view) override;

 private:
  std::uint32_t next_chip_ = 0;
};

// ---------------------------------------------------------------------------
// Victim policy: which full block GC reclaims next.

class VictimPolicy {
 public:
  virtual ~VictimPolicy() = default;
  virtual const char* Name() const = 0;

  /// Pick a reclaimable block: full, not an active frontier, and with at
  /// most `max_movable` live (valid+retained) pages. Foreground GC passes
  /// pages_per_block - 1 (any block that frees at least one page);
  /// idle/background GC passes a smaller cap to take only cheap wins.
  /// Returns kNoVictim when nothing qualifies.
  virtual std::uint32_t SelectVictim(const PolicyView& view,
                                     std::uint32_t max_movable) = 0;
};

/// Greedy selection: the full block with the fewest movable pages (minimum
/// copy cost), ties broken toward the least-worn block so wear stays
/// bounded, then toward the lowest block id. This is the paper's baseline
/// GC and the parity-pinned default; it reads the answer off the FTL's
/// victim index (PolicyView::GreedyVictim) instead of scanning every block.
class GreedyVictimPolicy final : public VictimPolicy {
 public:
  const char* Name() const override { return "greedy"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override;
};

/// Cost-benefit selection with wear awareness: score each candidate by the
/// classic (1 - u) / (2u) reclamation ratio (u = movable fraction; reading
/// the block costs u, writing it back costs u, the payoff is 1 - u) scaled
/// by a coldness bonus for lightly-erased blocks. Versus greedy it will
/// accept a slightly fuller victim when that victim is much colder, trading
/// a few extra copies for a flatter wear distribution — the knob the
/// delayed-deletion GC debate in the paper is actually about.
class CostBenefitVictimPolicy final : public VictimPolicy {
 public:
  /// `wear_weight` scales the coldness bonus; 0 degenerates to pure
  /// cost-benefit.
  explicit CostBenefitVictimPolicy(double wear_weight = 0.5)
      : wear_weight_(wear_weight) {}
  const char* Name() const override { return "cost-benefit"; }
  std::uint32_t SelectVictim(const PolicyView& view,
                             std::uint32_t max_movable) override;

 private:
  double wear_weight_;
};

// ---------------------------------------------------------------------------
// Factories from the config.

std::unique_ptr<AllocationPolicy> MakeAllocationPolicy(const FtlConfig& config);
std::unique_ptr<VictimPolicy> MakeVictimPolicy(const FtlConfig& config);

/// Checks the retention-related parts of a config for combinations that
/// would silently retain nothing (or contradict each other) instead of
/// implementing the paper's recovery guarantee.
RetentionConfigError ValidateRetentionConfig(const FtlConfig& config);

}  // namespace insider::ftl
