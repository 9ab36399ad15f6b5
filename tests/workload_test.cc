#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "workload/apps.h"
#include "workload/file_set.h"
#include "workload/mixer.h"
#include "workload/ransomware.h"
#include "workload/trace.h"

namespace insider::wl {
namespace {

TEST(FileSetTest, GeneratesRequestedFiles) {
  Rng rng(1);
  FileSet::Params p;
  p.file_count = 500;
  FileSet fs = FileSet::Generate(p, rng);
  EXPECT_EQ(fs.FileCount(), 500u);
  EXPECT_GT(fs.TotalBlocks(), 0u);
  EXPECT_LE(fs.EndLba(), p.region_start + p.region_blocks);
}

TEST(FileSetTest, ExtentsDoNotOverlap) {
  Rng rng(2);
  FileSet::Params p;
  p.file_count = 300;
  p.fragmentation = 0.5;
  FileSet fs = FileSet::Generate(p, rng);
  std::unordered_set<Lba> seen;
  for (const FileInfo& f : fs.Files()) {
    std::uint32_t total = 0;
    for (const FileExtent& e : f.extents) {
      total += e.blocks;
      for (Lba b = e.start; b < e.start + e.blocks; ++b) {
        EXPECT_TRUE(seen.insert(b).second) << "block " << b << " reused";
      }
    }
    EXPECT_EQ(total, f.total_blocks);
  }
}

TEST(FileSetTest, DeterministicForSeed) {
  FileSet::Params p;
  p.file_count = 100;
  Rng a(7), b(7);
  FileSet fa = FileSet::Generate(p, a);
  FileSet fb = FileSet::Generate(p, b);
  ASSERT_EQ(fa.FileCount(), fb.FileCount());
  for (std::size_t i = 0; i < fa.FileCount(); ++i) {
    EXPECT_EQ(fa.Files()[i].total_blocks, fb.Files()[i].total_blocks);
  }
}

TEST(RansomwareTest, AllFamiliesHaveProfiles) {
  for (const std::string& name : AllRansomwareNames()) {
    RansomwareProfile p = RansomwareProfileByName(name);
    EXPECT_EQ(p.name, name);
    EXPECT_GT(p.encrypt_rate_mbps, 0.0);
  }
  EXPECT_THROW(RansomwareProfileByName("NotARansomware"),
               std::invalid_argument);
}

class RansomwareTraceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RansomwareTraceTest, ReadsBeforeOverwrites) {
  Rng rng(5);
  FileSet::Params fp;
  fp.file_count = 50;
  FileSet files = FileSet::Generate(fp, rng);
  RansomwareProfile profile = RansomwareProfileByName(GetParam());
  RansomwareRunParams rp;
  rp.start_time = Seconds(1);
  rp.scratch_start = 1 << 21;
  RansomwareTrace trace = GenerateRansomware(profile, files, rp, rng);

  ASSERT_FALSE(trace.requests.empty());
  EXPECT_GE(trace.active_begin, Seconds(1));
  EXPECT_EQ(trace.files_attacked, 50u);

  // Time-sorted; every overwrite of a victim block follows a read of it.
  std::unordered_set<Lba> read_blocks;
  std::uint64_t victim_overwrites = 0;
  SimTime prev = 0;
  for (const IoRequest& r : trace.requests) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    for (std::uint32_t i = 0; i < r.length; ++i) {
      Lba b = r.lba + i;
      if (r.mode == IoMode::kRead) {
        read_blocks.insert(b);
      } else if (r.mode == IoMode::kWrite && b < rp.scratch_start) {
        EXPECT_TRUE(read_blocks.contains(b))
            << "victim block overwritten without read";
        ++victim_overwrites;
      }
    }
  }
  EXPECT_EQ(victim_overwrites, trace.blocks_encrypted);
}

INSTANTIATE_TEST_SUITE_P(Families, RansomwareTraceTest,
                         ::testing::Values("WannaCry", "Mole", "Jaff",
                                           "CryptoShield", "Locky.bbs",
                                           "Zerber.ufb", "GlobeImposter",
                                           "InHouse.inplace",
                                           "InHouse.outplace"));

TEST(RansomwareTest, OutOfPlaceWritesToScratchAndTrims) {
  Rng rng(5);
  FileSet::Params fp;
  fp.file_count = 20;
  FileSet files = FileSet::Generate(fp, rng);
  RansomwareRunParams rp;
  rp.scratch_start = 1 << 21;
  RansomwareTrace trace = GenerateRansomware(
      RansomwareProfileByName("WannaCry"), files, rp, rng);
  bool scratch_write = false, trim = false;
  for (const IoRequest& r : trace.requests) {
    if (r.mode == IoMode::kWrite && r.lba >= rp.scratch_start) {
      scratch_write = true;
    }
    if (r.mode == IoMode::kTrim) trim = true;
  }
  EXPECT_TRUE(scratch_write);
  EXPECT_TRUE(trim);
}

TEST(RansomwareTest, FastFamiliesOutpaceSlowOnes) {
  Rng rng(5);
  FileSet::Params fp;
  fp.file_count = 2000;  // enough data that Jaff can't finish in 30 s
  FileSet files = FileSet::Generate(fp, rng);
  RansomwareRunParams rp;
  rp.scratch_start = 1 << 21;
  rp.max_duration = Seconds(30);
  auto blocks_in_30s = [&](const char* name) {
    Rng r(5);
    return GenerateRansomware(RansomwareProfileByName(name), files, rp, r)
        .blocks_encrypted;
  };
  EXPECT_GT(blocks_in_30s("WannaCry"), 3 * blocks_in_30s("Jaff"));
}

TEST(RansomwareTest, SlowdownStretchesTheAttack) {
  Rng rng(5);
  FileSet::Params fp;
  fp.file_count = 100;
  FileSet files = FileSet::Generate(fp, rng);
  RansomwareProfile p = RansomwareProfileByName("Mole");
  RansomwareRunParams rp;
  rp.scratch_start = 1 << 21;
  Rng r1(5), r2(5);
  RansomwareTrace fast = GenerateRansomware(p, files, rp, r1);
  p.slowdown = 4.0;
  RansomwareTrace slow = GenerateRansomware(p, files, rp, r2);
  EXPECT_GT(slow.active_end - slow.active_begin,
            2 * (fast.active_end - fast.active_begin));
}

TEST(RansomwareTest, MaxFilesLimitsScope) {
  Rng rng(5);
  FileSet::Params fp;
  fp.file_count = 100;
  FileSet files = FileSet::Generate(fp, rng);
  RansomwareRunParams rp;
  rp.max_files = 10;
  RansomwareTrace t = GenerateRansomware(RansomwareProfileByName("Mole"),
                                         files, rp, rng);
  EXPECT_EQ(t.files_attacked, 10u);
}

class AppTraceTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppTraceTest, ProducesSortedBoundedRequests) {
  AppParams p;
  p.duration = Seconds(10);
  p.region_start = 1000;
  p.region_blocks = 1 << 16;
  Rng rng(11);
  AppTrace t = GenerateApp(GetParam(), p, rng);
  ASSERT_FALSE(t.requests.empty()) << t.name;
  SimTime prev = 0;
  for (const IoRequest& r : t.requests) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    EXPECT_GE(r.lba, p.region_start);
    EXPECT_LE(r.lba + r.length, p.region_start + p.region_blocks);
    EXPECT_GT(r.length, 0u);
  }
  EXPECT_LE(prev, p.start_time + p.duration + Seconds(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppTraceTest,
    ::testing::ValuesIn(AllAppKinds()),
    [](const ::testing::TestParamInfo<AppKind>& param_info) {
      return AppKindName(param_info.param);
    });

TEST(AppTest, CategoriesMatchTableI) {
  EXPECT_EQ(CategoryOf(AppKind::kDataWiping), AppCategory::kHeavyOverwriting);
  EXPECT_EQ(CategoryOf(AppKind::kDatabase), AppCategory::kHeavyOverwriting);
  EXPECT_EQ(CategoryOf(AppKind::kIoStress), AppCategory::kIoIntensive);
  EXPECT_EQ(CategoryOf(AppKind::kCompression), AppCategory::kCpuIntensive);
  EXPECT_EQ(CategoryOf(AppKind::kWebSurfing), AppCategory::kNormal);
  EXPECT_EQ(CategoryOf(AppKind::kNone), AppCategory::kNone);
}

TEST(AppTest, NameRoundTrip) {
  for (AppKind k : AllAppKinds()) {
    EXPECT_EQ(AppKindByName(AppKindName(k)), k);
  }
  EXPECT_THROW(AppKindByName("Nope"), std::invalid_argument);
}

TEST(AppTest, WipingWritesDwarfItsReads) {
  AppParams p;
  p.duration = Seconds(60);  // many full wipe cycles, so the ratio settles
  Rng rng(3);
  AppTrace t = GenerateApp(AppKind::kDataWiping, p, rng);
  std::uint64_t reads = 0, writes = 0;
  for (const IoRequest& r : t.requests) {
    if (r.mode == IoMode::kRead) reads += r.length;
    if (r.mode == IoMode::kWrite) writes += r.length;
  }
  // Seven write passes per read pass.
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(reads), 7.0,
              0.5);
}

TEST(AppTest, P2pWritesBeforeVerifyReads) {
  AppParams p;
  p.duration = Seconds(5);
  Rng rng(3);
  AppTrace t = GenerateApp(AppKind::kP2pDownload, p, rng);
  // Hash-check reads happen after the piece is written, never before, so
  // P2P generates (almost) no overwrites in the paper's sense.
  std::unordered_set<Lba> written;
  std::uint64_t reads_before_write = 0;
  for (const IoRequest& r : t.requests) {
    for (std::uint32_t i = 0; i < r.length; ++i) {
      if (r.mode == IoMode::kWrite) written.insert(r.lba + i);
      if (r.mode == IoMode::kRead && !written.contains(r.lba + i)) {
        ++reads_before_write;
      }
    }
  }
  EXPECT_EQ(reads_before_write, 0u);
}

TEST(MixerTest, MergePreservesOrderAndTags) {
  std::vector<IoRequest> a{{1000, 1, 1, IoMode::kRead},
                           {3000, 2, 1, IoMode::kRead}};
  std::vector<IoRequest> b{{2000, 3, 1, IoMode::kWrite}};
  std::vector<TaggedRequest> merged = Merge2(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].request.lba, 1u);
  EXPECT_EQ(merged[0].source, 0u);
  EXPECT_EQ(merged[1].request.lba, 3u);
  EXPECT_EQ(merged[1].source, 1u);
  EXPECT_EQ(merged[2].request.lba, 2u);
}

TEST(MixerTest, TieBreaksBySource) {
  std::vector<IoRequest> a{{1000, 1, 1, IoMode::kRead}};
  std::vector<IoRequest> b{{1000, 2, 1, IoMode::kRead}};
  std::vector<TaggedRequest> merged = Merge2(a, b);
  EXPECT_EQ(merged[0].source, 0u);
  EXPECT_EQ(merged[1].source, 1u);
}

TEST(TraceTest, RoundTripThroughText) {
  std::vector<IoRequest> reqs{{1000, 5, 8, IoMode::kRead},
                              {2000, 9, 1, IoMode::kWrite},
                              {3000, 9, 1, IoMode::kTrim}};
  std::ostringstream os;
  WriteTrace(os, reqs);
  std::istringstream is(os.str());
  EXPECT_EQ(ReadTrace(is), reqs);
}

TEST(TraceTest, FileRoundTrip) {
  std::vector<IoRequest> reqs;
  Rng rng(9);
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.BelowTime(5000);
    reqs.push_back({t, rng.Below(1 << 20),
                    1 + static_cast<std::uint32_t>(rng.Below(64)),
                    rng.Chance(0.5) ? IoMode::kWrite : IoMode::kRead});
  }
  std::string path = ::testing::TempDir() + "/roundtrip.trace";
  ASSERT_TRUE(SaveTraceFile(path, reqs));
  EXPECT_EQ(LoadTraceFile(path), reqs);
}

TEST(TraceTest, LoadMissingFileYieldsEmpty) {
  EXPECT_TRUE(LoadTraceFile("/nonexistent/definitely/missing.trace").empty());
}

TEST(TraceTest, RejectsMalformedInput) {
  std::istringstream no_header("1 2 3 R\n");
  EXPECT_THROW(ReadTrace(no_header), std::invalid_argument);
  std::istringstream bad_mode("# insider-trace v1\n1 2 3 X\n");
  EXPECT_THROW(ReadTrace(bad_mode), std::invalid_argument);
  std::istringstream unsorted("# insider-trace v1\n5 1 1 R\n1 1 1 R\n");
  EXPECT_THROW(ReadTrace(unsorted), std::invalid_argument);
}

}  // namespace
}  // namespace insider::wl
