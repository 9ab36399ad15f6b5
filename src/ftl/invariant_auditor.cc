#include "ftl/invariant_auditor.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "ftl/page_ftl.h"
#include "version/version_store.h"

namespace insider::ftl {

const char* ToString(InvariantViolation::Kind kind) {
  switch (kind) {
    case InvariantViolation::Kind::kStaleMapping: return "stale-mapping";
    case InvariantViolation::Kind::kDanglingBackup: return "dangling-backup";
    case InvariantViolation::Kind::kCounterDrift: return "counter-drift";
    case InvariantViolation::Kind::kBadBlockMismatch:
      return "bad-block-mismatch";
    case InvariantViolation::Kind::kStructural: return "structural";
    case InvariantViolation::Kind::kAllocatorMismatch:
      return "allocator-mismatch";
    case InvariantViolation::Kind::kVersionStoreMismatch:
      return "version-store-mismatch";
  }
  return "unknown";
}

bool AuditReport::Has(InvariantViolation::Kind kind) const {
  for (const InvariantViolation& v : violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

std::string AuditReport::Diff() const {
  if (ok()) return {};
  std::ostringstream out;
  out << "FTL invariant audit: " << violations.size() << " violation(s)";
  if (truncated) out << " (truncated)";
  out << " after " << checks << " checks\n";
  for (const InvariantViolation& v : violations) {
    out << "  [" << ToString(v.kind) << "] " << v.where << "\n"
        << "    expected: " << v.expected << "\n"
        << "    actual:   " << v.actual << "\n";
  }
  return out.str();
}

namespace {

/// Collects violations with the cap and the check counter in one place so
/// the per-invariant code below stays declarative.
class Recorder {
 public:
  Recorder(AuditReport& report, std::size_t max_violations)
      : report_(report), max_(max_violations) {}

  bool Full() const { return report_.truncated; }

  /// Evaluate one predicate; on failure record a violation built from the
  /// streamed where/expected/actual triple.
  template <typename WhereFn>
  void Check(bool holds, InvariantViolation::Kind kind, WhereFn&& describe) {
    ++report_.checks;
    if (holds || Full()) return;
    InvariantViolation v;
    v.kind = kind;
    describe(v);
    report_.violations.push_back(std::move(v));
    if (report_.violations.size() >= max_) report_.truncated = true;
  }

 private:
  AuditReport& report_;
  std::size_t max_;
};

std::string Str(std::uint64_t v) { return std::to_string(v); }

std::string PageStateName(PageState s) {
  switch (s) {
    case PageState::kFree: return "Free";
    case PageState::kValid: return "Valid";
    case PageState::kInvalid: return "Invalid";
    case PageState::kRetained: return "Retained";
    case PageState::kBad: return "Bad";
    case PageState::kArchived: return "Archived";
  }
  return "?";
}

std::string HealthName(BlockHealth h) {
  switch (h) {
    case BlockHealth::kHealthy: return "Healthy";
    case BlockHealth::kPendingRetire: return "PendingRetire";
    case BlockHealth::kRetired: return "Retired";
  }
  return "?";
}

}  // namespace

AuditReport InvariantAuditor::Audit(const PageFtl& ftl,
                                    std::size_t max_violations) {
  using Kind = InvariantViolation::Kind;
  const nand::Geometry& geo = ftl.config_.geometry;
  AuditReport report;
  Recorder rec(report, max_violations == 0 ? 1 : max_violations);

  // Raw OOB peek, bypassing the timed/ECC read path (the audit must not
  // perturb the deterministic error sequence). Empty for erased and burned
  // pages.
  auto oob_of = [&](nand::Ppa ppa) { return ftl.nand_.PeekPage(ppa); };

  // --- M1/M2: every L2P entry against page state, P2L, and NAND OOB. ----
  for (Lba lba = 0; lba < ftl.exported_lbas_ && !rec.Full(); ++lba) {
    nand::Ppa ppa = ftl.l2p_.Get(lba);
    if (ppa == nand::kInvalidPpa) continue;
    rec.Check(ppa < geo.TotalPages(), Kind::kStaleMapping,
              [&](InvariantViolation& v) {
                v.where = "l2p[" + Str(lba) + "]";
                v.expected = "ppa < " + Str(geo.TotalPages());
                v.actual = "ppa " + Str(ppa);
              });
    if (ppa >= geo.TotalPages()) continue;
    rec.Check(ftl.page_state_.Get(ppa) == PageState::kValid, Kind::kStaleMapping,
              [&](InvariantViolation& v) {
                v.where = "l2p[" + Str(lba) + "] -> ppa " + Str(ppa);
                v.expected = "page state Valid";
                v.actual = "page state " + PageStateName(ftl.page_state_.Get(ppa));
              });
    rec.Check(ftl.p2l_.Get(ppa) == lba, Kind::kStaleMapping,
              [&](InvariantViolation& v) {
                v.where = "p2l[" + Str(ppa) + "]";
                v.expected = "lba " + Str(lba) + " (from l2p)";
                v.actual = ftl.p2l_.Get(ppa) == kInvalidLba
                               ? "unmapped"
                               : "lba " + Str(ftl.p2l_.Get(ppa));
              });
    const std::optional<nand::PageView> data = oob_of(ppa);
    rec.Check(data.has_value(), Kind::kStaleMapping,
              [&](InvariantViolation& v) {
                v.where = "nand page " + Str(ppa) + " (l2p[" + Str(lba) + "])";
                v.expected = "programmed, readable page";
                v.actual = "erased or burned page";
              });
    if (!data.has_value()) continue;
    rec.Check(data->oob.lba == lba, Kind::kStaleMapping,
              [&](InvariantViolation& v) {
                v.where = "oob(" + Str(ppa) + ").lba";
                v.expected = Str(lba) + " (from l2p)";
                v.actual = Str(data->oob.lba);
              });
    rec.Check(data->oob.seq > 0 && data->oob.seq <= ftl.write_seq_,
              Kind::kStaleMapping, [&](InvariantViolation& v) {
                v.where = "oob(" + Str(ppa) + ").seq";
                v.expected = "in (0, " + Str(ftl.write_seq_) + "]";
                v.actual = Str(data->oob.seq);
              });
  }

  // --- Q1/Q2/Q3: every recovery-queue entry against NAND and the mapping.
  ftl.queue_.ForEachWithId([&](RecoveryQueue::EntryId id,
                               const BackupEntry& e) {
    if (rec.Full()) return;
    std::string entry = "queue entry " + Str(id) + " {lba " + Str(e.lba) +
                        ", ppa " + Str(e.old_ppa) + "}";
    rec.Check(e.old_ppa < geo.TotalPages(), Kind::kDanglingBackup,
              [&](InvariantViolation& v) {
                v.where = entry;
                v.expected = "old ppa < " + Str(geo.TotalPages());
                v.actual = "ppa " + Str(e.old_ppa);
              });
    if (e.old_ppa >= geo.TotalPages()) return;
    const std::optional<nand::PageView> data = oob_of(e.old_ppa);
    rec.Check(data.has_value(), Kind::kDanglingBackup,
              [&](InvariantViolation& v) {
                v.where = entry;
                v.expected = "old ppa still programmed (un-erased, not bad)";
                v.actual = "page is erased or burned";
              });
    rec.Check(ftl.page_state_.Get(e.old_ppa) == PageState::kRetained,
              Kind::kDanglingBackup, [&](InvariantViolation& v) {
                v.where = entry;
                v.expected = "page state Retained";
                v.actual =
                    "page state " + PageStateName(ftl.page_state_.Get(e.old_ppa));
              });
    rec.Check(ftl.p2l_.Get(e.old_ppa) == id, Kind::kDanglingBackup,
              [&](InvariantViolation& v) {
                v.where = entry;
                v.expected = "p2l names entry " + Str(id);
                v.actual = ftl.p2l_.Get(e.old_ppa) == kInvalidLba
                               ? "p2l unmapped"
                               : "p2l " + Str(ftl.p2l_.Get(e.old_ppa));
              });
    if (data.has_value()) {
      rec.Check(data->oob.lba == e.lba, Kind::kDanglingBackup,
                [&](InvariantViolation& v) {
                  v.where = entry;
                  v.expected = "oob lba " + Str(e.lba);
                  v.actual = "oob lba " + Str(data->oob.lba);
                });
    }
  });

  // Q3, in-window: the release pass pops from the front while the front is
  // at or past the horizon, so the queue's *front* entry is younger than
  // the largest horizon ever released to. (Deeper entries may be older —
  // GC can advance one write's clock past the next write's — but such
  // stragglers release lazily and RollBack, walking newest-first and
  // stopping at the horizon, never replays them.) A forced pop since the
  // last release pass may have uncovered a straggler; the next pass pops
  // it, so the front is only checked when no forced pop came after one.
  bool front_checked = ftl.queue_.ForcedSinceRelease();  // nothing to check
  ftl.queue_.ForEach([&](const BackupEntry& e) {
    if (front_checked || rec.Full()) return;
    front_checked = true;
    rec.Check(e.written_at > ftl.last_release_horizon_, Kind::kDanglingBackup,
              [&](InvariantViolation& v) {
                v.where = "queue front {lba " + Str(e.lba) + ", ppa " +
                          Str(e.old_ppa) + "}";
                v.expected = "written_at inside the retention window (> " +
                             std::to_string(ftl.last_release_horizon_) + ")";
                v.actual = "written_at " + std::to_string(e.written_at) +
                           " (should have been released)";
              });
  });

  // --- M3/Q4/C1: one sweep over physical pages recomputes what the
  // counters and the queue should say.
  std::uint64_t valid_total = 0;
  std::uint64_t retained_total = 0;
  std::uint64_t archived_total = 0;
  std::vector<BlockCounters> recomputed(geo.TotalBlocks());
  for (nand::Ppa ppa = 0; ppa < geo.TotalPages() && !rec.Full(); ++ppa) {
    PageState st = ftl.page_state_.Get(ppa);
    const std::uint32_t bid = ftl.nand_.Decoder().BlockIdOf(ppa);
    if (ftl.nand_.IsMetadataBlock(bid)) {
      // Checkpoint/journal pages carry stamps, not host data: the data-path
      // tables must never claim them, whatever the media says.
      rec.Check(st == PageState::kFree && ftl.p2l_.Get(ppa) == kInvalidLba,
                Kind::kStructural, [&](InvariantViolation& v) {
                  v.where = "metadata page " + Str(ppa);
                  v.expected = "state Free and no p2l entry (reserved block)";
                  v.actual = "state " + PageStateName(st);
                });
      continue;
    }
    bool programmed = ftl.nand_.IsProgrammed(ppa);
    rec.Check((st == PageState::kFree) == !programmed, Kind::kBadBlockMismatch,
              [&](InvariantViolation& v) {
                v.where = "page " + Str(ppa);
                v.expected = programmed ? "a non-Free FTL state (programmed)"
                                        : "state Free (erased in NAND)";
                v.actual = "state " + PageStateName(st);
              });
    if (ftl.nand_.IsBadPage(ppa)) {
      rec.Check(st == PageState::kBad, Kind::kBadBlockMismatch,
                [&](InvariantViolation& v) {
                  v.where = "page " + Str(ppa);
                  v.expected = "state Bad (burned in NAND)";
                  v.actual = "state " + PageStateName(st);
                });
    }
    if (st == PageState::kValid) {
      ++valid_total;
      ++recomputed[bid].valid;
      bool mapped = ftl.p2l_.Get(ppa) != kInvalidLba &&
                    ftl.p2l_.Get(ppa) < ftl.exported_lbas_ &&
                    ftl.l2p_.Get(ftl.p2l_.Get(ppa)) == ppa;
      rec.Check(mapped, Kind::kStaleMapping, [&](InvariantViolation& v) {
        v.where = "valid page " + Str(ppa);
        v.expected = "p2l/l2p round-trip back to this page";
        v.actual = ftl.p2l_.Get(ppa) == kInvalidLba
                       ? "no reverse mapping"
                       : "p2l lba " + Str(ftl.p2l_.Get(ppa)) +
                             " maps elsewhere";
      });
    } else if (st == PageState::kRetained) {
      ++retained_total;
      ++recomputed[bid].retained;
      rec.Check(ftl.queue_.Guards(ftl.QueueIdOf(ppa), ppa),
                Kind::kDanglingBackup, [&](InvariantViolation& v) {
                  v.where = "retained page " + Str(ppa);
                  v.expected = "the recovery-queue entry its p2l names "
                               "guarding it";
                  v.actual = "entry " + Str(ftl.p2l_.Get(ppa)) +
                             " does not (backup lost)";
                });
    } else if (st == PageState::kArchived) {
      // V1: an archived page is named by exactly one data record, in the
      // chain of the LBA its p2l tag carries.
      ++archived_total;
      ++recomputed[bid].archived;
      const Lba lba = ftl.p2l_.Get(ppa);
      const std::vector<version::VersionRecord>* chain =
          lba == kInvalidLba ? nullptr : ftl.store_.ChainOf(lba);
      const std::size_t naming =
          chain == nullptr
              ? 0
              : static_cast<std::size_t>(std::count_if(
                    chain->begin(), chain->end(),
                    [ppa](const version::VersionRecord& r) {
                      return !r.tombstone && r.ppa == ppa;
                    }));
      rec.Check(naming == 1, Kind::kVersionStoreMismatch,
                [&](InvariantViolation& v) {
                  v.where = "archived page " + Str(ppa);
                  v.expected = "exactly one data record of its p2l lba's "
                               "chain naming it";
                  v.actual = lba == kInvalidLba
                                 ? "no p2l lba"
                                 : Str(naming) + " in the chain of lba " +
                                       Str(lba);
                });
    }
  }
  for (std::uint32_t b = 0; b < geo.TotalBlocks() && !rec.Full(); ++b) {
    rec.Check(recomputed[b].valid == ftl.block_counters_[b].valid &&
                  recomputed[b].retained == ftl.block_counters_[b].retained &&
                  recomputed[b].archived == ftl.block_counters_[b].archived,
              Kind::kCounterDrift, [&](InvariantViolation& v) {
                v.where = "block " + Str(b) + " counters";
                v.expected = "valid " + Str(recomputed[b].valid) +
                             ", retained " + Str(recomputed[b].retained) +
                             ", archived " + Str(recomputed[b].archived) +
                             " (recomputed from page states)";
                v.actual = "valid " + Str(ftl.block_counters_[b].valid) +
                           ", retained " +
                           Str(ftl.block_counters_[b].retained) +
                           ", archived " +
                           Str(ftl.block_counters_[b].archived);
              });
  }
  rec.Check(valid_total == ftl.valid_pages_, Kind::kCounterDrift,
            [&](InvariantViolation& v) {
              v.where = "global valid-page total";
              v.expected = Str(valid_total) + " (recomputed)";
              v.actual = Str(ftl.valid_pages_);
            });
  rec.Check(retained_total == ftl.retained_pages_, Kind::kCounterDrift,
            [&](InvariantViolation& v) {
              v.where = "global retained-page total";
              v.expected = Str(retained_total) + " (recomputed)";
              v.actual = Str(ftl.retained_pages_);
            });
  rec.Check(retained_total == ftl.queue_.Size(), Kind::kCounterDrift,
            [&](InvariantViolation& v) {
              v.where = "recovery-queue size";
              v.expected = Str(retained_total) + " (retained page total)";
              v.actual = Str(ftl.queue_.Size());
            });
  rec.Check(archived_total == ftl.archived_pages_, Kind::kCounterDrift,
            [&](InvariantViolation& v) {
              v.where = "global archived-page total";
              v.expected = Str(archived_total) + " (recomputed)";
              v.actual = Str(ftl.archived_pages_);
            });

  // --- V2-V4: every record against the page it names. ---
  std::uint64_t data_records = 0;
  ftl.store_.ForEachChain(
      [&](Lba lba, const std::vector<version::VersionRecord>& records) {
        for (const version::VersionRecord& r : records) {
          if (rec.Full()) return;
          auto where = [&] {
            return "version record {lba " + Str(lba) + ", written_at " +
                   std::to_string(r.written_at) + "}";
          };
          if (r.tombstone) {
            // V3: a tombstone pins no page.
            rec.Check(r.ppa == nand::kInvalidPpa,
                      Kind::kVersionStoreMismatch, [&](InvariantViolation& v) {
                        v.where = where();
                        v.expected = "tombstone names no page";
                        v.actual = "names ppa " + Str(r.ppa);
                      });
            continue;
          }
          ++data_records;
          // V2: a data record names an archived page tagged with its LBA.
          const bool in_range = r.ppa < geo.TotalPages();
          rec.Check(in_range &&
                        ftl.page_state_.Get(r.ppa) == PageState::kArchived &&
                        ftl.p2l_.Get(r.ppa) == lba,
                    Kind::kVersionStoreMismatch, [&](InvariantViolation& v) {
                      v.where = where();
                      v.expected = "names an Archived page with p2l lba " +
                                   Str(lba);
                      v.actual =
                          !in_range
                              ? "ppa " + Str(r.ppa) + " out of range"
                              : "ppa " + Str(r.ppa) + " in state " +
                                    PageStateName(
                                        ftl.page_state_.Get(r.ppa)) +
                                    ", p2l lba " + Str(ftl.p2l_.Get(r.ppa));
                    });
        }
      });
  // V4: one page per data record.
  rec.Check(data_records == archived_total, Kind::kVersionStoreMismatch,
            [&](InvariantViolation& v) {
              v.where = "version-store data records";
              v.expected = Str(archived_total) + " (archived page total)";
              v.actual = Str(data_records);
            });

  // --- B1-B3 + structural: block health vs pools, frontiers, and NAND. ---
  std::size_t pool_total = 0;
  for (std::uint32_t chip = 0; chip < geo.TotalChips() && !rec.Full();
       ++chip) {
    for (std::uint32_t b : ftl.free_blocks_by_chip_[chip]) {
      ++pool_total;
      rec.Check(ftl.block_health_[b] == BlockHealth::kHealthy,
                Kind::kBadBlockMismatch, [&](InvariantViolation& v) {
                  v.where = "free pool of chip " + Str(chip);
                  v.expected = "only Healthy blocks pooled";
                  v.actual = "block " + Str(b) + " is " +
                             HealthName(ftl.block_health_[b]);
                });
      rec.Check(ftl.nand_.BlockAt(b).IsErased(), Kind::kBadBlockMismatch,
                [&](InvariantViolation& v) {
                  v.where = "free pool of chip " + Str(chip);
                  v.expected = "block " + Str(b) + " erased in NAND";
                  v.actual = "write pointer " +
                             Str(ftl.nand_.BlockAt(b).WritePointer());
                });
    }
    std::uint32_t active = ftl.active_block_per_chip_[chip];
    if (active != PageFtl::kNoActiveBlock) {
      rec.Check(ftl.block_health_[active] == BlockHealth::kHealthy,
                Kind::kBadBlockMismatch, [&](InvariantViolation& v) {
                  v.where = "active frontier of chip " + Str(chip);
                  v.expected = "a Healthy block";
                  v.actual = "block " + Str(active) + " is " +
                             HealthName(ftl.block_health_[active]);
                });
    }
  }
  // A1: each chip's cached ready bit is what ChipCanAllocate says now.
  for (std::uint32_t chip = 0; chip < geo.TotalChips() && !rec.Full();
       ++chip) {
    const bool can = ftl.view_.ChipCanAllocate(chip);
    rec.Check(ftl.view_.ChipReady(chip) == can, Kind::kAllocatorMismatch,
              [&](InvariantViolation& v) {
                v.where = "ready bit of chip " + Str(chip);
                v.expected = can ? "set (frontier room or a pooled block)"
                                 : "clear (frontier full, pool empty)";
                v.actual = can ? "clear" : "set";
              });
  }
  rec.Check(pool_total == ftl.free_block_count_, Kind::kStructural,
            [&](InvariantViolation& v) {
              v.where = "free block count";
              v.expected = Str(pool_total) + " (pooled blocks)";
              v.actual = Str(ftl.free_block_count_);
            });
  std::uint32_t retired_seen = 0;
  for (std::uint32_t b = 0; b < geo.TotalBlocks() && !rec.Full(); ++b) {
    if (ftl.block_health_[b] != BlockHealth::kRetired) continue;
    ++retired_seen;
    rec.Check(ftl.block_counters_[b].Movable() == 0, Kind::kBadBlockMismatch,
              [&](InvariantViolation& v) {
                v.where = "retired block " + Str(b);
                v.expected = "no live (valid/retained) pages";
                v.actual = Str(ftl.block_counters_[b].valid) + " valid, " +
                           Str(ftl.block_counters_[b].retained) + " retained";
              });
  }
  rec.Check(retired_seen == ftl.retired_blocks_, Kind::kBadBlockMismatch,
            [&](InvariantViolation& v) {
              v.where = "retired block total";
              v.expected = Str(retired_seen) + " (health table)";
              v.actual = Str(ftl.retired_blocks_);
            });

  // --- B4: reserved metadata blocks stay invisible to the data path —
  // never pooled, never a write frontier, never counted.
  for (std::uint64_t mb : ftl.metadata_blocks_) {
    if (rec.Full()) break;
    std::uint32_t b = static_cast<std::uint32_t>(mb);
    std::uint32_t chip = ftl.nand_.Decoder().ChipOfBlock(b);
    bool pooled = false;
    for (std::uint32_t fb : ftl.free_blocks_by_chip_[chip]) {
      if (fb == b) pooled = true;
    }
    rec.Check(!pooled && ftl.active_block_per_chip_[chip] != b,
              Kind::kStructural, [&](InvariantViolation& v) {
                v.where = "metadata block " + Str(b);
                v.expected = "outside the free pool and never a frontier";
                v.actual = pooled ? "in chip " + Str(chip) + "'s free pool"
                                  : "active frontier of chip " + Str(chip);
              });
    rec.Check(ftl.block_counters_[b].valid == 0 &&
                  ftl.block_counters_[b].retained == 0 &&
                  ftl.block_counters_[b].archived == 0,
              Kind::kStructural, [&](InvariantViolation& v) {
                v.where = "metadata block " + Str(b) + " counters";
                v.expected = "all zero (no host data)";
                v.actual = Str(ftl.block_counters_[b].valid) + " valid, " +
                           Str(ftl.block_counters_[b].retained) +
                           " retained, " +
                           Str(ftl.block_counters_[b].archived) + " archived";
              });
  }

  // --- G2: the victim index against the eligibility rule it caches.
  std::size_t eligible_total = 0;
  for (std::uint32_t b = 0; b < geo.TotalBlocks() && !rec.Full(); ++b) {
    if (ftl.nand_.IsMetadataBlock(b)) continue;
    const nand::Block& blk = ftl.nand_.BlockAt(b);
    const bool eligible = blk.IsFull() && !ftl.view_.IsActive(b) &&
                          ftl.block_health_[b] == BlockHealth::kHealthy;
    if (eligible) ++eligible_total;
    const std::uint32_t key = eligible ? ftl.block_counters_[b].Movable()
                                       : VictimIndex::kNone;
    rec.Check(ftl.victims_.KeyOf(b) == key &&
                  (!eligible ||
                   ftl.victims_.EraseKeyOf(b) == blk.EraseCount()),
              Kind::kStructural, [&](InvariantViolation& v) {
                v.where = "victim index entry of block " + Str(b);
                v.expected = eligible ? "keyed by " + Str(key) + " movable"
                                      : "absent (not reclaimable)";
                v.actual = ftl.victims_.Contains(b)
                               ? "keyed by " + Str(ftl.victims_.KeyOf(b)) +
                                     " movable, " +
                                     Str(ftl.victims_.EraseKeyOf(b)) +
                                     " erases"
                               : "absent";
              });
  }
  rec.Check(rec.Full() || ftl.victims_.Size() == eligible_total,
            Kind::kStructural, [&](InvariantViolation& v) {
              v.where = "victim index size";
              v.expected = Str(eligible_total) + " (reclaimable blocks)";
              v.actual = Str(ftl.victims_.Size());
            });

  return report;
}

}  // namespace insider::ftl
