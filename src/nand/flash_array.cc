#include "nand/flash_array.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace insider::nand {

FlashArray::FlashArray(const Geometry& geometry, const LatencyModel& latency,
                       const ErrorModel& errors, std::uint64_t error_seed)
    : geo_(geometry), decode_(geometry), latency_(latency), errors_(errors),
      error_rng_(error_seed),
      chip_busy_until_(geometry.TotalChips(), 0),
      channel_busy_until_(geometry.channels, 0) {
  blocks_.reserve(static_cast<std::size_t>(geo_.TotalBlocks()));
  for (std::uint64_t i = 0; i < geo_.TotalBlocks(); ++i) {
    blocks_.emplace_back(geo_.pages_per_block);
  }
}

void FlashArray::AttachObs(obs::Tracer* tracer,
                           obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    bus_hist_ = &metrics_->GetHistogram("nand.bus_us");
    cell_read_hist_ = &metrics_->GetHistogram("nand.cell_read_us");
    cell_program_hist_ = &metrics_->GetHistogram("nand.cell_program_us");
    cell_erase_hist_ = &metrics_->GetHistogram("nand.cell_erase_us");
  } else {
    bus_hist_ = cell_read_hist_ = cell_program_hist_ = cell_erase_hist_ =
        nullptr;
  }
}

SimTime FlashArray::Occupy(std::uint32_t chip, SimTime now, SimTime die_time,
                           SimTime bus_time, bool bus_first) {
  SimTime start = std::max(now, chip_busy_until_[chip]);
  std::int64_t chip_arg = static_cast<std::int64_t>(chip);
  if (bus_time == 0) {  // erase: pure cell work, the channel is untouched
    SimTime done = start + die_time;
    chip_busy_until_[chip] = done;
    obs::EmitSpan(tracer_, "nand.cell_erase", "nand", chip, start, done,
                  chip_arg, "chip");
    if (cell_erase_hist_ != nullptr) {
      cell_erase_hist_->Add(static_cast<double>(die_time));
    }
    return done;
  }
  std::uint32_t channel = decode_.ChannelOfChip(chip);
  SimTime done;
  if (bus_first) {
    // Program: the page streams over the bus into the die's register, then
    // the die programs cells on its own while the bus serves other dies.
    SimTime bus_start = std::max(start, channel_busy_until_[channel]);
    channel_busy_until_[channel] = bus_start + bus_time;
    done = bus_start + bus_time + die_time;
    obs::EmitSpan(tracer_, "nand.bus", "nand", channel, bus_start,
                  bus_start + bus_time, chip_arg, "chip");
    obs::EmitSpan(tracer_, "nand.cell_program", "nand", chip,
                  bus_start + bus_time, done, chip_arg, "chip");
    if (cell_program_hist_ != nullptr) {
      cell_program_hist_->Add(static_cast<double>(die_time));
    }
  } else {
    // Read: the die senses on its own, then the page streams out over the
    // bus once it is free.
    SimTime bus_start = std::max(start + die_time,
                                 channel_busy_until_[channel]);
    done = bus_start + bus_time;
    channel_busy_until_[channel] = done;
    obs::EmitSpan(tracer_, "nand.cell_read", "nand", chip, start,
                  start + die_time, chip_arg, "chip");
    obs::EmitSpan(tracer_, "nand.bus", "nand", channel, bus_start, done,
                  chip_arg, "chip");
    if (cell_read_hist_ != nullptr) {
      cell_read_hist_->Add(static_cast<double>(die_time));
    }
  }
  if (bus_hist_ != nullptr) bus_hist_->Add(static_cast<double>(bus_time));
  chip_busy_until_[chip] = done;
  return done;
}

NandStatus FlashArray::SampleReadErrors(std::uint64_t erase_count,
                                        SimTime& extra) {
  extra = 0;
  if (!errors_.Enabled()) return NandStatus::kOk;
  // Expected raw bit errors in one page; sample ~Poisson via Knuth (the
  // rate is tiny relative to the 32k bits of a 4-KB page).
  double lambda = errors_.EffectiveBer(erase_count) *
                  static_cast<double>(geo_.page_size) * 8.0;
  std::uint32_t errors = 0;
  double l = std::exp(-lambda);
  double p = 1.0;
  do {
    p *= error_rng_.Uniform();
    if (p <= l) break;
    ++errors;
  } while (errors < 10 * errors_.ecc_correctable_bits);

  if (errors == 0) return NandStatus::kOk;
  if (errors <= errors_.ecc_correctable_bits) {
    ++counters_.corrected_reads;
    return NandStatus::kOk;
  }
  if (errors <= 2 * errors_.ecc_correctable_bits) {
    ++counters_.corrected_reads;
    ++counters_.read_retries;
    extra = errors_.retry_latency;
    return NandStatus::kOk;
  }
  ++counters_.uncorrectable_reads;
  return NandStatus::kUncorrectableEcc;
}

bool FlashArray::SampleFault(FaultKind kind, std::uint64_t op_index,
                             SimTime now, double prob) {
  if (plan_.Consume(kind, op_index, now)) return true;
  return prob > 0.0 && error_rng_.Chance(prob);
}

NandResult FlashArray::ReadPage(Ppa ppa, SimTime now) {
  if (!geo_.ValidPpa(ppa)) return {NandStatus::kBadAddress, now, {}};
  const std::uint32_t block_id = decode_.BlockIdOf(ppa);
  const std::uint32_t chip = decode_.ChipOfBlock(block_id);
  const Block& block = blocks_[block_id];
  const std::uint32_t page = decode_.PageOf(ppa);
  if (block.IsProgrammed(page) && block.IsBadPage(page)) {
    // A burned page always reads uncorrectable: the failed program left its
    // cells in an indeterminate state.
    ++counters_.page_reads;
    ++counters_.uncorrectable_reads;
    SimTime done = Occupy(chip, now, latency_.page_read,
                          latency_.channel_transfer, /*bus_first=*/false);
    return {NandStatus::kUncorrectableEcc, done, {}};
  }
  std::optional<PageView> data = block.Read(page);
  if (!data.has_value()) {
    return {NandStatus::kReadOfErasedPage, now, {}};
  }
  SimTime extra = 0;
  NandStatus ecc = SampleReadErrors(block.EraseCount(), extra);
  ++counters_.page_reads;
  if (ecc == NandStatus::kOk &&
      SampleFault(FaultKind::kReadUncorrectable, counters_.page_reads, now,
                  0.0)) {
    ecc = NandStatus::kUncorrectableEcc;
    ++counters_.uncorrectable_reads;
  }
  SimTime done = Occupy(chip, now, latency_.page_read + extra,
                        latency_.channel_transfer, /*bus_first=*/false);
  if (ecc != NandStatus::kOk) {
    return {ecc, done, {}};
  }
  return {NandStatus::kOk, done, data};
}

NandResult FlashArray::ProgramPage(Ppa ppa, const PageView& page,
                                   SimTime now) {
  return Program(ppa, page, now, FaultKind::kProgramFail,
                 errors_.program_fail_prob, counters_.page_programs,
                 counters_.program_fails);
}

NandResult FlashArray::ProgramMetaPage(Ppa ppa, const PageView& page,
                                       SimTime now) {
  return Program(ppa, page, now, FaultKind::kMetaProgramFail, 0.0,
                 counters_.meta_page_programs, counters_.meta_program_fails);
}

NandResult FlashArray::EraseBlock(BlockAddr addr, SimTime now) {
  return Erase(addr, now, FaultKind::kEraseFail, errors_.erase_fail_prob,
               counters_.block_erases, counters_.erase_fails);
}

NandResult FlashArray::EraseMetaBlock(BlockAddr addr, SimTime now) {
  return Erase(addr, now, FaultKind::kMetaEraseFail, 0.0,
               counters_.meta_block_erases, counters_.meta_erase_fails);
}

NandResult FlashArray::Program(Ppa ppa, const PageView& page, SimTime now,
                               FaultKind fault, double fail_prob,
                               std::uint64_t& programs,
                               std::uint64_t& fails) {
  if (!geo_.ValidPpa(ppa)) return {NandStatus::kBadAddress, now, {}};
  const std::uint32_t block_id = decode_.BlockIdOf(ppa);
  const std::uint32_t chip = decode_.ChipOfBlock(block_id);
  Block& block = blocks_[block_id];
  const std::uint32_t index = decode_.PageOf(ppa);
  // Sequencing first: a rejected program never reaches the media, so it
  // must not consume a scripted fault or shift the error RNG.
  if (block.IsFull()) return {NandStatus::kProgramToFullBlock, now, {}};
  if (index != block.WritePointer()) {
    return {NandStatus::kProgramOutOfOrder, now, {}};
  }
  if (SampleFault(fault, programs + fails + 1, now, fail_prob)) {
    (void)block.BurnPage(index);  // cannot fail: sequencing checked above
    ++fails;
    // A failed program holds the die for the full program time — the status
    // check only reports failure at the end of the operation.
    SimTime done = Occupy(chip, now, latency_.page_program,
                          latency_.channel_transfer, /*bus_first=*/true);
    return {NandStatus::kProgramFail, done, {}};
  }
  (void)block.Program(index, page);  // cannot fail: sequencing checked above
  ++programs;
  SimTime done = Occupy(chip, now, latency_.page_program,
                        latency_.channel_transfer, /*bus_first=*/true);
  return {NandStatus::kOk, done, {}};
}

NandResult FlashArray::Erase(BlockAddr addr, SimTime now, FaultKind fault,
                             double fail_prob, std::uint64_t& erases,
                             std::uint64_t& fails) {
  if (addr.chip >= geo_.TotalChips() || addr.block >= geo_.blocks_per_chip) {
    return {NandStatus::kBadAddress, now, {}};
  }
  if (SampleFault(fault, erases + fails + 1, now, fail_prob)) {
    ++fails;
    // Failed erase: the block's contents are untouched; the die was still
    // busy for the erase pulse.
    SimTime done = Occupy(addr.chip, now, latency_.block_erase, 0,
                          /*bus_first=*/false);
    return {NandStatus::kEraseFail, done, {}};
  }
  const std::size_t block_id =
      static_cast<std::size_t>(addr.chip) * geo_.blocks_per_chip + addr.block;
  blocks_[block_id].Erase();
  ++erases;
  SimTime done =
      Occupy(addr.chip, now, latency_.block_erase, 0, /*bus_first=*/false);
  return {NandStatus::kOk, done, {}};
}

void FlashArray::SetMetadataBlocks(std::vector<std::uint64_t> block_ids) {
  meta_blocks_.assign(static_cast<std::size_t>(geo_.TotalBlocks()), 0);
  for (std::uint64_t id : block_ids) {
    if (id < meta_blocks_.size()) meta_blocks_[id] = 1;
  }
}

bool FlashArray::IsProgrammed(Ppa ppa) const {
  if (!geo_.ValidPpa(ppa)) return false;
  return blocks_[decode_.BlockIdOf(ppa)].IsProgrammed(decode_.PageOf(ppa));
}

bool FlashArray::IsBadPage(Ppa ppa) const {
  if (!geo_.ValidPpa(ppa)) return false;
  return blocks_[decode_.BlockIdOf(ppa)].IsBadPage(decode_.PageOf(ppa));
}

std::optional<PageView> FlashArray::PeekPage(Ppa ppa) const {
  if (!geo_.ValidPpa(ppa)) return std::nullopt;
  return blocks_[decode_.BlockIdOf(ppa)].Read(decode_.PageOf(ppa));
}

std::uint64_t FlashArray::TotalEraseCount() const {
  std::uint64_t total = 0;
  for (const Block& b : blocks_) total += b.EraseCount();
  return total;
}

std::uint64_t FlashArray::MaxEraseCount() const {
  std::uint64_t max_count = 0;
  for (const Block& b : blocks_) {
    max_count = std::max(max_count, b.EraseCount());
  }
  return max_count;
}

std::uint64_t FlashArray::MaterializedBlocks() const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) n += b.Materialized() ? 1u : 0u;
  return n;
}

std::uint64_t FlashArray::ResidentBytesEstimate() const {
  std::uint64_t bytes =
      blocks_.capacity() * sizeof(Block) +
      (chip_busy_until_.capacity() + channel_busy_until_.capacity()) *
          sizeof(SimTime) +
      meta_blocks_.capacity();
  for (const Block& b : blocks_) bytes += b.ResidentBytesEstimate();
  return bytes;
}

}  // namespace insider::nand
