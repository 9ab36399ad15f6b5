// Unit coverage for the chunked LazyTable and the FTL's 32-bit page-id
// tables built on it: L2P/P2L/page-state at 512 GB without gigabytes of
// resident DRAM.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/lazy_table.h"
#include "ftl/page_id_table.h"

namespace insider::common {
namespace {

TEST(LazyTableTest, ReadsDefaultWithoutMaterializing) {
  LazyTable<std::uint64_t> t(1'000'000, 42);
  EXPECT_EQ(t.Size(), 1'000'000u);
  EXPECT_EQ(t.Get(0), 42u);
  EXPECT_EQ(t.Get(999'999), 42u);
  EXPECT_EQ(t.MaterializedChunks(), 0u);
  // Directory only: far below a dense million-entry table.
  EXPECT_LT(t.ResidentBytes(), 8u * 1'000'000 / 100);
}

TEST(LazyTableTest, SetOfDefaultOnPristineChunkIsFree) {
  LazyTable<std::uint64_t> t(10'000, 7);
  t.Set(5, 7);
  EXPECT_EQ(t.MaterializedChunks(), 0u);
  EXPECT_TRUE(t.ChunkPristine(5));
}

TEST(LazyTableTest, SetMaterializesOnlyTheTouchedChunk) {
  LazyTable<std::uint64_t> t(10 * LazyTable<std::uint64_t>::kChunkEntries, 0);
  t.Set(3, 99);
  EXPECT_EQ(t.Get(3), 99u);
  EXPECT_EQ(t.Get(4), 0u);  // same chunk, default-filled
  EXPECT_EQ(t.MaterializedChunks(), 1u);
  EXPECT_FALSE(t.ChunkPristine(3));
  EXPECT_TRUE(t.ChunkPristine(LazyTable<std::uint64_t>::kChunkEntries + 1));
}

TEST(LazyTableTest, MutGivesWritableReference) {
  LazyTable<int> t(100, -1);
  t.Mut(17) = 5;
  EXPECT_EQ(t.Get(17), 5);
  EXPECT_EQ(t.Get(16), -1);
}

TEST(LazyTableTest, AssignResetsEverything) {
  LazyTable<int> t(100, 1);
  t.Set(3, 2);
  t.Assign(200, 9);
  EXPECT_EQ(t.Size(), 200u);
  EXPECT_EQ(t.Get(3), 9);
  EXPECT_EQ(t.MaterializedChunks(), 0u);
}

TEST(LazyTableTest, PaperScaleDirectoryStaysSmall) {
  // 134M entries (paper-scale TotalPages): an empty table must cost well
  // under a megabyte — the dense equivalent is ~1 GiB.
  LazyTable<std::uint64_t> t(134'217'728, ~std::uint64_t{0});
  EXPECT_EQ(t.Get(134'217'727), ~std::uint64_t{0});
  EXPECT_LT(t.ResidentBytes(), 1u << 20);
}

TEST(PageIdTableTest, LargestIdRoundTripsAtTheLargestIndex) {
  // 2^32 - 2 is the largest id a 32-bit slot holds besides "none", and the
  // largest PPA a device ValidateGeometry accepts can reach.
  constexpr std::uint64_t kLargest = 0xFFFF'FFFEull;
  static_assert(kLargest == ftl::kMaxPageId);
  ftl::PageIdTable t;
  t.Assign(kLargest + 1);
  EXPECT_EQ(t.Get(kLargest), ~std::uint64_t{0});
  t.Set(kLargest, kLargest);
  t.Set(0, kLargest - 1);
  EXPECT_EQ(t.Get(kLargest), kLargest);  // not mistaken for "none"
  EXPECT_EQ(t.Get(kLargest - 1), ~std::uint64_t{0});
  EXPECT_EQ(t.Get(0), kLargest - 1);
  const ftl::PageIdTable copy = t.Clone();
  t.Set(kLargest, ~std::uint64_t{0});  // all-ones clears the slot
  EXPECT_EQ(t.Get(kLargest), ~std::uint64_t{0});
  EXPECT_EQ(copy.Get(kLargest), kLargest);
  // Two chunks of 4-B ids plus the directory.
  EXPECT_LT(t.ResidentBytes(), (std::uint64_t{1} << 20) * 8 + (64u << 10));
}

}  // namespace
}  // namespace insider::common
