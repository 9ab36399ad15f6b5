// Cross-layer invariant auditor for the FTL's three state stores.
//
// SSD-Insider's rollback guarantee is only as strong as the consistency of
// (1) the mapping tables (L2P/P2L, page states, per-block counters, free
// pools), (2) the recovery queue, and (3) NAND reality (programmed pages and
// their OOB {lba, seq, written_at} tags). A single stale L2P entry or a
// recovery-queue entry pointing at a GC'd page silently breaks "perfect"
// recovery, so the auditor cross-checks all three stores against each other
// and reports every disagreement as a structured violation.
//
// The audited invariants, as formal statements (DESIGN.md §9 carries the
// prose rationale):
//
//   M1  ∀ lba: l2p[lba] = p ≠ ⊥ ⇒ state[p] = Valid ∧ p2l[p] = lba
//   M2  ∀ lba: l2p[lba] = p ≠ ⊥ ⇒ programmed(p) ∧ ¬bad(p)
//                ∧ oob(p).lba = lba ∧ 0 < oob(p).seq ≤ write_seq
//   M3  ∀ p: state[p] = Valid ⇒ p2l[p] ≠ ⊥ ∧ l2p[p2l[p]] = p
//   Q1  ∀ e ∈ queue: programmed(e.old_ppa) ∧ ¬bad(e.old_ppa)
//                ∧ oob(e.old_ppa).lba = e.lba
//   Q2  ∀ e ∈ queue: state[e.old_ppa] = Retained ∧ p2l[e.old_ppa] = id(e)
//   Q3  front(queue).written_at > last release horizon (still in-window),
//                unless a forced pop came after the last release pass
//   Q4  ∀ p: state[p] = Retained ⇒ the entry p2l[p] names guards p;
//                |queue| = retained page total
//   C1  ∀ block b: counters[b].{valid,retained} = |{p ∈ b : state[p] = …}|
//   C2  Σ_b counters[b].valid = valid_pages ∧ Σ_b counters[b].retained
//                = retained_pages; free_block_count = Σ_chip |pool(chip)|
//   B1  ∀ b: health[b] = Retired ⇒ counters[b] = 0 ∧ b ∉ pools ∧ b not a
//                frontier ∧ every programmed page of b has state Bad
//   B2  ∀ b: health[b] = PendingRetire ⇒ b ∉ pools ∧ b not a frontier
//   B3  ∀ b ∈ pools: health[b] = Healthy ∧ erased(b)
//   B4  ∀ p: bad-in-NAND(p) ⇒ state[p] = Bad; state[p] = Free ⇔ ¬programmed(p)
//   V1  ∀ p: state[p] = Archived ⇒ programmed(p) ∧ p2l[p] ≠ ⊥ ∧ exactly
//                one data record of chain(p2l[p]) names p
//   V2  ∀ data record r ∈ chain(lba): state[r.ppa] = Archived
//                ∧ p2l[r.ppa] = lba
//   V3  ∀ tombstone record r: r.ppa = ⊥
//   V4  |data records| = archived page total = Σ_b counters[b].archived
//   A1  ∀ chip c: ready(c) ⇔ (frontier(c) ≠ ⊥ ∧ ¬full(frontier(c)))
//                ∨ pool(c) ≠ ∅ — the allocator's cached ready bitmap
//   G2  ∀ data block b: b ∈ victim index ⇔ full(b) ∧ b not a frontier ∧
//                health[b] = Healthy; a member is keyed by (counters[b]
//                movable, erase count)
//
// Audit() never mutates the FTL. The INSIDER_AUDIT build option additionally
// compiles a hook into PageFtl that runs Audit() after every mutation and
// aborts with AuditReport::Diff() on the first violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "nand/geometry.h"

namespace insider::ftl {

class PageFtl;

/// One detected disagreement between two state stores.
struct InvariantViolation {
  enum class Kind : std::uint8_t {
    kStaleMapping,     ///< L2P entry disagrees with page state / NAND OOB
    kDanglingBackup,   ///< recovery-queue entry lost its physical page
    kCounterDrift,     ///< occupancy counters disagree with the mapping
    kBadBlockMismatch, ///< block-health table disagrees with NAND reality
    kStructural,       ///< free-pool / frontier bookkeeping broken
    kVersionStoreMismatch, ///< version store disagrees with page states
    kAllocatorMismatch,    ///< a chip's ready bit disagrees with its frontier
                           ///< and free pool
  };
  Kind kind = Kind::kStructural;
  std::string where;     ///< which entity, e.g. "l2p[42]" or "block 3"
  std::string expected;  ///< the value the cross-checked store implies
  std::string actual;    ///< the value the audited store holds
};

const char* ToString(InvariantViolation::Kind kind);

struct AuditReport {
  std::vector<InvariantViolation> violations;
  std::size_t checks = 0;  ///< individual predicates evaluated
  bool truncated = false;  ///< hit the max_violations cap; more may exist

  bool ok() const { return violations.empty(); }
  bool Has(InvariantViolation::Kind kind) const;

  /// Human-readable structured diff: one "where: expected … / actual …"
  /// block per violation. Empty string when ok().
  std::string Diff() const;
};

class InvariantAuditor {
 public:
  /// Cross-check every invariant above. `max_violations` caps the report so
  /// a badly corrupted device doesn't build an unbounded diff; the scan
  /// stops once the cap is reached (report.truncated set).
  static AuditReport Audit(const PageFtl& ftl, std::size_t max_violations = 16);
};

}  // namespace insider::ftl
