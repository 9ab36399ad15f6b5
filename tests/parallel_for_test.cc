// io::ParallelFor runs independent devices side by side (fleet parallelism).
// Every index must run exactly once whatever the thread count, including
// more threads than tasks and no tasks at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "io/parallel_for.h"

namespace insider::io {
namespace {

// Each task writes only its own slot, so the slots need no synchronization.
std::vector<int> HitsPerIndex(std::size_t count, std::size_t threads) {
  std::vector<int> hits(count, 0);
  ParallelFor(count, threads, [&](std::size_t i) { ++hits[i]; });
  return hits;
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  // Counts 1, 2 and 7 also run with fewer tasks than threads.
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    for (std::size_t count : {1u, 2u, 7u, 64u, 1000u}) {
      std::vector<int> hits = HitsPerIndex(count, threads);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i], 1) << "threads " << threads << " count " << count
                              << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroTasksNeverCallsTheBody) {
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    std::size_t calls = 0;
    ParallelFor(0, threads, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0u) << "threads " << threads;
  }
}

TEST(ParallelForTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

}  // namespace
}  // namespace insider::io
