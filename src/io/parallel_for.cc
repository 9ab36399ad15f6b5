#include "io/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace insider::io {

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // More workers than cores is pure context-switch overhead: clamp to the
  // hardware budget.
  threads = std::min(threads, HardwareThreads());
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto pump = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };
  std::size_t n = std::min(threads, count);
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) pool.emplace_back(pump);
  pump();
  for (std::thread& t : pool) t.join();
}

std::size_t HardwareThreads() {
  std::size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace insider::io
