// Fixed-capacity single-producer ring buffer backing the submission and
// completion queues. Capacity is set at construction (the queue's "depth");
// a full ring rejects pushes, which is exactly the backpressure signal the
// frontend propagates to hosts. A zero-capacity ring is legal and refuses
// every push; wl::MultiTenantDriver refuses to run on one
// (kZeroDepthQueue).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace insider::io {

template <typename T>
class RingQueue {
 public:
  explicit RingQueue(std::size_t capacity) : slots_(capacity) {}

  std::size_t Capacity() const { return slots_.size(); }
  std::size_t Size() const { return count_; }
  bool Empty() const { return count_ == 0; }
  bool Full() const { return count_ == slots_.size(); }

  /// Enqueue; false (and no change) when the ring is full.
  [[nodiscard]] bool TryPush(T value) {
    if (Full()) return false;
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(value);
    ++count_;
    return true;
  }

  /// Oldest element without consuming it; nullptr when empty.
  const T* Peek() const { return Empty() ? nullptr : &slots_[head_]; }

  /// Dequeue the oldest element; nullopt when empty.
  std::optional<T> TryPop() {
    if (Empty()) return std::nullopt;
    T out = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    return out;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace insider::io
