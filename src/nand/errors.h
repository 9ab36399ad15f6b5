// NAND media faults as a pluggable model: raw bit errors and the
// controller's ECC on the read path, plus program- and erase-operation
// failures on the write path.
//
// Disabled by default (all probabilities 0): the reproduction's experiments
// run on ideal media, as the paper's do. Enabling the read model exercises
// the production read path: raw bit errors grow with a block's wear, most
// reads correct in-line, marginal pages need a retry (extra soft-decode
// latency), and pages beyond the ECC budget fail with an uncorrectable
// status that the FTL must surface. Enabling the program/erase model makes
// writes and erases fail with kProgramFail/kEraseFail, which the FTL must
// absorb by re-driving writes and retiring grown-bad blocks.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace insider::nand {

struct ErrorModel {
  /// Raw bit error probability per bit at zero wear; 0 disables the model.
  double base_ber = 0.0;
  /// Multiplicative wear growth: effective_ber = base_ber * (1 + erase_count
  /// * wear_factor).
  double wear_factor = 0.0;
  /// Bit errors per page the in-line ECC corrects for free.
  std::uint32_t ecc_correctable_bits = 8;
  /// Errors in (correctable, 2*correctable] succeed after a soft-decode
  /// retry costing this much extra time.
  SimTime retry_latency = Microseconds(80);

  /// Probability one page program fails (grown defect). The failed page is
  /// burned — unreadable, its block position consumed — and the firmware is
  /// expected to re-drive the write elsewhere and retire the block.
  double program_fail_prob = 0.0;
  /// Probability one block erase fails. A failed erase leaves the block's
  /// contents untouched; the firmware retires the block immediately.
  double erase_fail_prob = 0.0;

  bool Enabled() const { return base_ber > 0.0; }

  double EffectiveBer(std::uint64_t erase_count) const {
    return base_ber * (1.0 + static_cast<double>(erase_count) * wear_factor);
  }
};

}  // namespace insider::nand
