// Timing-model tests for the NAND array: die occupancy, channel sharing,
// and the latency arithmetic the Fig. 8 overhead argument rests on.
#include <gtest/gtest.h>

#include "nand/flash_array.h"

namespace insider::nand {
namespace {

Geometry TwoByTwo() {
  Geometry g;
  g.channels = 2;
  g.ways = 2;  // chips 0..3; channel = chip % 2
  g.blocks_per_chip = 4;
  g.pages_per_block = 4;
  return g;
}

TEST(NandTimingTest, ReadLatencyIsCellPlusTransfer) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  Ppa ppa = nand.Geo().MakePpa(0, 0, 0);
  ASSERT_TRUE(nand.ProgramPage(ppa, {1, {}}, 0).ok());
  SimTime idle = Seconds(1);  // after all queues drained
  NandResult r = nand.ReadPage(ppa, idle);
  EXPECT_EQ(r.complete_time, idle + lat.page_read + lat.channel_transfer);
}

TEST(NandTimingTest, EraseHoldsTheDie) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  ASSERT_TRUE(nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, 0).ok());
  SimTime t0 = Seconds(1);
  // Erase one block of the die; a program to another block of the SAME die
  // submitted at the same instant queues behind the whole erase.
  NandResult er = nand.EraseBlock({0, 1}, t0);
  NandResult pr = nand.ProgramPage(g.MakePpa(0, 0, 1), {2, {}}, t0);
  ASSERT_TRUE(er.ok());
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr.complete_time,
            er.complete_time + lat.page_program + lat.channel_transfer);
}

TEST(NandTimingTest, SameDieOperationsQueue) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  SimTime t = Seconds(1);
  NandResult a = nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, t);
  NandResult b = nand.ProgramPage(g.MakePpa(0, 0, 1), {2, {}}, t);
  NandResult c = nand.ProgramPage(g.MakePpa(0, 0, 2), {3, {}}, t);
  SimTime unit = lat.page_program + lat.channel_transfer;
  EXPECT_EQ(a.complete_time, t + unit);
  EXPECT_EQ(b.complete_time, t + 2 * unit);
  EXPECT_EQ(c.complete_time, t + 3 * unit);
}

TEST(NandTimingTest, ChipsOnSameChannelShareTheBus) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  // Chips 0 and 2 share channel 0.
  ASSERT_EQ(nand.Decoder().ChannelOfChip(0), nand.Decoder().ChannelOfChip(2));
  SimTime t = Seconds(1);
  NandResult a = nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, t);
  NandResult b = nand.ProgramPage(g.MakePpa(2, 0, 0), {2, {}}, t);
  // The second op starts only after the first releases the shared bus.
  EXPECT_GT(b.complete_time, a.complete_time);
}

TEST(NandTimingTest, ChipsOnDifferentChannelsOverlapFully) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  ASSERT_NE(nand.Decoder().ChannelOfChip(0), nand.Decoder().ChannelOfChip(1));
  SimTime t = Seconds(1);
  NandResult a = nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, t);
  NandResult b = nand.ProgramPage(g.MakePpa(1, 0, 0), {2, {}}, t);
  EXPECT_EQ(a.complete_time, b.complete_time);
}

TEST(NandTimingTest, EraseIsSlowerThanProgramIsSlowerThanRead) {
  LatencyModel lat;
  // The orders of magnitude the paper's overhead argument needs.
  EXPECT_GT(lat.block_erase, lat.page_program);
  EXPECT_GT(lat.page_program, lat.page_read);
  EXPECT_GE(lat.page_read, Microseconds(10));
}

TEST(NandTimingTest, SubmissionAfterBusyTimeStartsImmediately) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  NandResult a = nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, 0);
  // Submit long after the die went idle: no queueing delay.
  SimTime later = a.complete_time + Seconds(1);
  NandResult b = nand.ProgramPage(g.MakePpa(0, 0, 1), {2, {}}, later);
  EXPECT_EQ(b.complete_time,
            later + lat.page_program + lat.channel_transfer);
}

TEST(NandTimingTest, FailedOperationsConsumeNoTime) {
  LatencyModel lat;
  FlashArray nand(TwoByTwo(), lat);
  const Geometry& g = nand.Geo();
  SimTime t = Seconds(1);
  NandResult bad = nand.ReadPage(g.MakePpa(0, 0, 0), t);  // erased page
  EXPECT_EQ(bad.status, NandStatus::kReadOfErasedPage);
  EXPECT_EQ(bad.complete_time, t);
  // The die is still free: a program right after completes in one unit.
  NandResult ok = nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, t);
  EXPECT_EQ(ok.complete_time, t + lat.page_program + lat.channel_transfer);
}

TEST(NandTimingTest, CountersIgnoreFailedOperations) {
  FlashArray nand(TwoByTwo(), LatencyModel::Zero());
  const Geometry& g = nand.Geo();
  nand.ReadPage(g.MakePpa(0, 0, 0), 0);                   // fails
  nand.ProgramPage(g.MakePpa(0, 0, 2), {1, {}}, 0);       // out of order
  EXPECT_EQ(nand.Counters().page_reads, 0u);
  EXPECT_EQ(nand.Counters().page_programs, 0u);
}

TEST(NandTimingTest, ResetCountersClears) {
  FlashArray nand(TwoByTwo(), LatencyModel::Zero());
  const Geometry& g = nand.Geo();
  nand.ProgramPage(g.MakePpa(0, 0, 0), {1, {}}, 0);
  nand.ResetCounters();
  EXPECT_EQ(nand.Counters().page_programs, 0u);
  // Data untouched by the counter reset.
  EXPECT_TRUE(nand.IsProgrammed(g.MakePpa(0, 0, 0)));
}

}  // namespace
}  // namespace insider::nand
