#include "ftl/recovery_queue.h"

#include <algorithm>
#include <cassert>

namespace insider::ftl {

RecoveryQueue::RecoveryQueue(const RecoveryQueue& other)
    : capacity_(other.capacity_),
      head_(other.head_),
      front_id_(other.front_id_),
      live_(other.live_),
      forced_since_release_(other.forced_since_release_) {
  for (const std::unique_ptr<Chunk>& c : other.chunks_) {
    auto copy = std::make_unique_for_overwrite<Chunk>();
    copy->center = c->center;
    copy->end = c->end;
    std::copy(c->slots, c->slots + c->end, copy->slots);
    chunks_.push_back(std::move(copy));
  }
}

RecoveryQueue::Pushed RecoveryQueue::Push(Lba lba, nand::Ppa old_ppa,
                                          SimTime now) {
  assert(lba <= kMaxPageId && old_ppa <= kMaxPageId &&
         "LBA or PPA does not fit a page id");
  Pushed out;
  while (capacity_ != 0 && live_ >= capacity_) {
    BackupEntry front = PopFront();
    if (front.old_ppa != nand::kInvalidPpa) {
      --live_;
      forced_since_release_ = true;
      out.evicted = front;
      break;
    }
  }
  std::optional<std::uint32_t> time;
  if (!chunks_.empty() && chunks_.back()->end < kChunkEntries) {
    time = PackAround(chunks_.back()->center, now);
  }
  if (!time) {
    OpenChunk(now);
    time = PackAround(now, now);
  }
  Chunk& back = *chunks_.back();
  const std::uint32_t i = back.end++;
  back.slots[i] = {static_cast<PageId>(lba), static_cast<PageId>(old_ppa),
                   *time};
  ++live_;
  out.id = IdAt(chunks_.size() - 1, i);
  return out;
}

void RecoveryQueue::OpenChunk(SimTime now) {
  // Ids are slot numbers mod 2^32 - 1: the live chunks must span fewer.
  assert((chunks_.size() + 1) * kChunkEntries < kIdModulus);
  std::unique_ptr<Chunk> c = std::move(spare_);
  if (c == nullptr) c = std::make_unique_for_overwrite<Chunk>();
  c->center = now;
  c->end = 0;
  chunks_.push_back(std::move(c));
}

void RecoveryQueue::CloseFrontChunk() {
  spare_ = std::move(chunks_.front());
  chunks_.pop_front();
  head_ = 0;
  front_id_ = (front_id_ + kChunkEntries) % kIdModulus;
}

BackupEntry RecoveryQueue::PopFront() {
  const BackupEntry e = Unpack(*chunks_.front(), head_);
  if (++head_ == chunks_.front()->end) CloseFrontChunk();
  return e;
}

BackupEntry RecoveryQueue::PopBack() {
  Chunk& back = *chunks_.back();
  const BackupEntry e = Unpack(back, --back.end);
  if (chunks_.size() == 1 && back.end == head_) {
    CloseFrontChunk();
  } else if (back.end == 0) {
    spare_ = std::move(chunks_.back());
    chunks_.pop_back();
  }
  return e;
}

std::optional<BackupEntry> RecoveryQueue::PopOldest() {
  while (!chunks_.empty()) {
    BackupEntry e = PopFront();
    if (e.old_ppa == nand::kInvalidPpa) continue;  // tombstone
    --live_;
    forced_since_release_ = true;
    return e;
  }
  return std::nullopt;
}

const RecoveryQueue::Slot* RecoveryQueue::Find(EntryId id,
                                               nand::Ppa ppa) const {
  if (id >= kIdModulus) return nullptr;
  const std::uint64_t d = (id + kIdModulus - front_id_) % kIdModulus;
  const std::uint64_t k = d / kChunkEntries;
  const auto i = static_cast<std::uint32_t>(d % kChunkEntries);
  if (k >= chunks_.size() || (k == 0 && i < head_)) return nullptr;
  const Chunk& c = *chunks_[k];
  if (i >= c.end || c.slots[i].ppa == kNoPageId || c.slots[i].ppa != ppa) {
    return nullptr;
  }
  return &c.slots[i];
}

bool RecoveryQueue::Relocate(EntryId id, nand::Ppa from_ppa,
                             nand::Ppa to_ppa) {
  Slot* s = Find(id, from_ppa);
  if (s == nullptr) return false;
  assert(to_ppa <= kMaxPageId);
  s->ppa = static_cast<PageId>(to_ppa);
  return true;
}

bool RecoveryQueue::Drop(EntryId id, nand::Ppa ppa) {
  Slot* s = Find(id, ppa);
  if (s == nullptr) return false;
  s->ppa = kNoPageId;
  --live_;
  return true;
}

void RecoveryQueue::Clear() {
  if (!chunks_.empty()) spare_ = std::move(chunks_.front());
  chunks_.clear();
  head_ = 0;
  front_id_ = 0;
  live_ = 0;
  forced_since_release_ = false;
}

}  // namespace insider::ftl
