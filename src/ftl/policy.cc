#include "ftl/policy.h"

namespace insider::ftl {

std::optional<std::uint32_t> StripedAllocationPolicy::NextChip(
    const PolicyView& view) {
  // Stripe across chips round-robin; skip chips that are full and have no
  // free block to open. The cursor moves just past the chip taken, skipped
  // chips included, so the stripe stays fair as chips fill at different
  // rates; when no chip is ready it stays where it is.
  std::optional<std::uint32_t> chip = view.NextReadyChip(next_chip_);
  if (chip) next_chip_ = *chip + 1 == view.ChipCount() ? 0 : *chip + 1;
  return chip;
}

std::uint32_t GreedyVictimPolicy::SelectVictim(const PolicyView& view,
                                               std::uint32_t max_movable) {
  return view.GreedyVictim(max_movable);
}

std::uint32_t CostBenefitVictimPolicy::SelectVictim(
    const PolicyView& view, std::uint32_t max_movable) {
  const std::uint32_t total = view.TotalBlocks();
  const double pages = static_cast<double>(view.Geo().pages_per_block);

  // First pass: the wear ceiling among candidates, to normalize coldness.
  std::uint64_t max_erases = 0;
  for (std::uint32_t b = 0; b < total; ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) continue;
    if (view.MovablePages(b) > max_movable) continue;
    max_erases = std::max(max_erases, view.EraseCount(b));
  }

  std::uint32_t victim = kNoVictim;
  double best_score = -1.0;
  for (std::uint32_t b = 0; b < total; ++b) {
    if (view.IsActive(b) || view.IsOutOfService(b) || !view.IsFull(b)) continue;
    std::uint32_t movable = view.MovablePages(b);
    if (movable > max_movable) continue;
    double u = static_cast<double>(movable) / pages;
    // (1 - u) / (2u): payoff of the freed space over the read+write copy
    // cost. The +epsilon keeps u == 0 finite (and maximal).
    double score = (1.0 - u) / (2.0 * u + 1e-9);
    // Coldness bonus: lightly-erased blocks are preferred so reclamation
    // doubles as wear leveling.
    double coldness =
        static_cast<double>(max_erases - view.EraseCount(b)) /
        static_cast<double>(max_erases + 1);
    score *= 1.0 + wear_weight_ * coldness;
    if (score > best_score) {
      best_score = score;
      victim = b;
    }
  }
  return victim;
}

std::unique_ptr<AllocationPolicy> MakeAllocationPolicy(
    const FtlConfig& /*config*/) {
  return std::make_unique<StripedAllocationPolicy>();
}

std::unique_ptr<VictimPolicy> MakeVictimPolicy(const FtlConfig& config) {
  switch (config.victim_policy) {
    case VictimPolicyKind::kCostBenefit:
      return std::make_unique<CostBenefitVictimPolicy>();
    case VictimPolicyKind::kGreedy:
      break;
  }
  return std::make_unique<GreedyVictimPolicy>();
}

const char* ToString(RetentionConfigIssue issue) {
  switch (issue) {
    case RetentionConfigIssue::kNone: return "none";
    case RetentionConfigIssue::kNegativeWindow: return "negative-window";
    case RetentionConfigIssue::kNoOpRetention: return "no-op-retention";
    case RetentionConfigIssue::kInvalidRangePolicy:
      return "invalid-range-policy";
  }
  return "?";
}

RetentionConfigError ValidateRetentionConfig(const FtlConfig& config) {
  if (config.retention_window < 0) {
    return {RetentionConfigIssue::kNegativeWindow,
            "retention_window must be >= 0"};
  }
  if (config.delayed_deletion && config.retention_window == 0) {
    // Every backup would age out the instant it is displaced: the device
    // pays delayed deletion's bookkeeping yet can never recover anything.
    return {RetentionConfigIssue::kNoOpRetention,
            "delayed_deletion with a zero retention_window retains nothing"};
  }
  if (config.range_policies != nullptr &&
      config.range_policies->RangeCount() > 0) {
    if (!config.delayed_deletion) {
      return {RetentionConfigIssue::kInvalidRangePolicy,
              "range_policies require delayed_deletion: without the ring "
              "there is nothing to archive"};
    }
    // RangePolicyTable::Add enforces these per entry; re-check so a table
    // built by other means cannot smuggle a no-op range in.
    for (const version::RangePolicy& r : config.range_policies->Ranges()) {
      if (r.begin >= r.end || r.keep_window < 0 ||
          (r.keep_versions == 0 && r.keep_window == 0)) {
        return {RetentionConfigIssue::kInvalidRangePolicy,
                "range policy retains nothing or has an empty range"};
      }
    }
  }
  return {};
}

}  // namespace insider::ftl
