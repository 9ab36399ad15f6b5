// The full NAND flash array: chips hanging off shared channel buses, with a
// timing model for die and bus contention, plus operation counters that the
// GC-cost experiments (Fig. 9) read.
//
// Every erase block lives in one flat vector indexed by global block id
// (chip * blocks_per_chip + block), built eagerly; each block defers its
// page storage until its first program. The FTL and its policies read write
// pointers and erase counts straight from here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "nand/block.h"
#include "nand/errors.h"
#include "nand/fault_plan.h"
#include "nand/geometry.h"
#include "nand/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace insider::nand {

enum class [[nodiscard]] NandStatus {
  kOk,
  kReadOfErasedPage,     ///< read targeted a page never programmed
  kProgramOutOfOrder,    ///< NAND pages must be programmed sequentially
  kProgramToFullBlock,   ///< block has no free pages left; erase first
  kBadAddress,
  kUncorrectableEcc,     ///< raw bit errors exceeded the ECC budget
  kProgramFail,          ///< program op failed; the page is burned
  kEraseFail,            ///< erase op failed; block contents untouched
};

struct NandResult {
  NandStatus status = NandStatus::kOk;
  /// Virtual time at which the operation finishes (die + bus occupancy).
  SimTime complete_time = 0;
  /// For successful reads: the page, its bytes valid only while the array
  /// lives and the block is not erased.
  std::optional<PageView> data;

  bool ok() const { return status == NandStatus::kOk; }
};

struct NandCounters {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;      ///< successful programs
  std::uint64_t block_erases = 0;       ///< successful erases
  std::uint64_t corrected_reads = 0;    ///< in-line ECC fixed bit errors
  std::uint64_t read_retries = 0;       ///< soft-decode retries
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t program_fails = 0;      ///< failed programs (page burned)
  std::uint64_t erase_fails = 0;        ///< failed erases
  // Reserved-metadata-block operations (checkpoint/journal flushes). Kept
  // separate so metadata traffic never shifts the data-path op indices the
  // scripted FaultPlan and the golden-counter tests key on.
  std::uint64_t meta_page_programs = 0;
  std::uint64_t meta_block_erases = 0;
  std::uint64_t meta_program_fails = 0;
  std::uint64_t meta_erase_fails = 0;

  friend bool operator==(const NandCounters&, const NandCounters&) = default;
};

class FlashArray {
 public:
  explicit FlashArray(const Geometry& geometry,
                      const LatencyModel& latency = LatencyModel{},
                      const ErrorModel& errors = ErrorModel{},
                      std::uint64_t error_seed = 0x5eed);

  const Geometry& Geo() const { return geo_; }
  /// PPA and block-id decode for this geometry (see PpaDecoder).
  const PpaDecoder& Decoder() const { return decode_; }
  const LatencyModel& Latency() const { return latency_; }
  const ErrorModel& Errors() const { return errors_; }
  const NandCounters& Counters() const { return counters_; }
  void ResetCounters() { counters_ = NandCounters{}; }

  /// Install a scripted fault plan (consulted before the probabilistic
  /// model). Replaces any previous plan.
  void SetFaultPlan(FaultPlan plan) { plan_ = std::move(plan); }
  const FaultPlan& Plan() const { return plan_; }

  /// Read one physical page. `now` is the submission time; the result's
  /// complete_time accounts for die busy time, cell read, and bus transfer.
  NandResult ReadPage(Ppa ppa, SimTime now);

  /// Program one physical page (must be the block's next sequential page)
  /// with a copy of `page`: stamp, OOB and optional bytes. A page that breaks
  /// the sequencing rules is rejected before any fault is sampled, so it
  /// consumes no scripted event and no error-RNG draw.
  NandResult ProgramPage(Ppa ppa, const PageView& page, SimTime now);

  /// Erase one block.
  NandResult EraseBlock(BlockAddr addr, SimTime now);

  // -- Reserved metadata blocks (checkpoint / journal substrate) -----------
  /// Mark the given global block ids (chip * blocks_per_chip + block) as
  /// reserved metadata blocks. Purely declarative: the FTL keeps them out of
  /// its pools; the array routes their ops through the Meta entry points.
  void SetMetadataBlocks(std::vector<std::uint64_t> block_ids);
  bool IsMetadataBlock(std::uint64_t block_id) const {
    return block_id < meta_blocks_.size() && meta_blocks_[block_id] != 0;
  }

  /// Program a reserved metadata page. Identical timing to ProgramPage but:
  /// counts under meta_page_programs, consults only the scripted plan
  /// (FaultKind::kMetaProgramFail) — never the probabilistic model or the
  /// shared error RNG.
  NandResult ProgramMetaPage(Ppa ppa, const PageView& page, SimTime now);

  /// Erase a reserved metadata block (counts under meta_block_erases;
  /// scripted FaultKind::kMetaEraseFail only).
  NandResult EraseMetaBlock(BlockAddr addr, SimTime now);

  /// Host-side crash injection *inside* a metadata flush: the probe is
  /// consulted before each metadata-page program with the flush point name
  /// ("checkpoint.flush" / "journal.flush"); returning true means power is
  /// being cut now — the caller must abort the rest of the flush, leaving a
  /// torn (detectable) metadata write.
  using PowerCutProbe = std::function<bool(const char*)>;
  void SetPowerCutProbe(PowerCutProbe probe) { power_cut_ = std::move(probe); }
  bool PowerCutRequested(const char* point) const {
    return power_cut_ != nullptr && power_cut_(point);
  }

  /// Direct state inspection for the FTL and tests, by global block id.
  const Block& BlockAt(std::uint64_t block_id) const {
    return blocks_[block_id];
  }

  /// Zero-time content inspection (FTL tombstone peeks, rebuild scans,
  /// tests): reads without touching the timing model. Empty for
  /// erased/bad/invalid addresses.
  std::optional<PageView> PeekPage(Ppa ppa) const;

  bool IsProgrammed(Ppa ppa) const;
  /// Page consumed by a failed program (unreadable until the block erases).
  bool IsBadPage(Ppa ppa) const;
  std::uint64_t TotalEraseCount() const;
  std::uint64_t MaxEraseCount() const;

  /// Blocks whose page storage has materialized (empty device: 0).
  std::uint64_t MaterializedBlocks() const;
  /// Resident heap estimate of the whole array — what the paper-scale
  /// footprint regression pins (empty 512 GB device: megabytes).
  std::uint64_t ResidentBytesEstimate() const;

  /// Attach the observability sinks (either may be null). The tracer gets a
  /// `nand.bus` span per channel transfer window (track = channel id) and a
  /// `nand.cell_{read,program,erase}` span per die occupancy (track = chip
  /// id); the registry mirrors them as duration histograms nand.bus_us /
  /// nand.cell_*_us.
  void AttachObs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  /// Reserve the die and its channel starting at `now`; returns completion.
  /// The channel is held only for the `bus_time` transfer window: before the
  /// cell work for programs (`bus_first`), after it for reads — dies on one
  /// channel overlap their cell time and serialize only on the bus. An op
  /// with `bus_time == 0` (erase) never touches the channel. The shape also
  /// names the op for the tracer: bus_time == 0 is an erase, bus_first a
  /// program, bus-last a read.
  SimTime Occupy(std::uint32_t chip, SimTime now, SimTime die_time,
                 SimTime bus_time, bool bus_first);

  /// Sample this read's bit-error count; returns the read outcome and any
  /// extra latency. kOk with extra latency models a soft-decode retry.
  NandStatus SampleReadErrors(std::uint64_t erase_count, SimTime& extra);

  /// Should this attempt of `kind` fail? Scripted plan first, then the
  /// probabilistic model with probability `prob` (0 never draws from the
  /// shared error RNG).
  bool SampleFault(FaultKind kind, std::uint64_t op_index, SimTime now,
                   double prob);

  /// Shared body of the data and metadata entry points: only the fault
  /// kind, its probability and the (success, failure) counter pair differ.
  NandResult Program(Ppa ppa, const PageView& page, SimTime now,
                     FaultKind fault, double fail_prob,
                     std::uint64_t& programs, std::uint64_t& fails);
  NandResult Erase(BlockAddr addr, SimTime now, FaultKind fault,
                   double fail_prob, std::uint64_t& erases,
                   std::uint64_t& fails);

  Geometry geo_;
  PpaDecoder decode_;
  LatencyModel latency_;
  ErrorModel errors_;
  Rng error_rng_;
  FaultPlan plan_;
  std::vector<Block> blocks_;  ///< indexed by global block id
  std::vector<SimTime> chip_busy_until_;
  std::vector<SimTime> channel_busy_until_;
  NandCounters counters_;
  /// Indexed by global block id; 1 = reserved metadata block.
  std::vector<std::uint8_t> meta_blocks_;
  PowerCutProbe power_cut_;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LogHistogram* bus_hist_ = nullptr;
  obs::LogHistogram* cell_read_hist_ = nullptr;
  obs::LogHistogram* cell_program_hist_ = nullptr;
  obs::LogHistogram* cell_erase_hist_ = nullptr;
};

}  // namespace insider::nand
