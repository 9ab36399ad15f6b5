// Experiment-runner tests: the scoring/aggregation machinery behind the
// Fig. 7/9 and latency reproductions, checked against trees with known
// behavior.
#include <gtest/gtest.h>

#include "core/pretrained.h"
#include "host/experiment.h"

namespace insider::host {
namespace {

core::DecisionTree ConstantTree(bool label) {
  core::DecisionTree t;
  t.AddLeaf(label);
  return t;
}

ScenarioConfig QuickScenario() {
  ScenarioConfig c;
  c.duration = Seconds(20);
  c.ransom_start = Seconds(5);
  c.fileset_files = 300;
  return c;
}

TEST(RunDetectionTest, AlwaysBenignTreeNeverAlarms) {
  BuiltScenario s = BuildScenario({wl::AppKind::kNone, "WannaCry", ""},
                                  QuickScenario(), 1);
  DetectionRun run = RunDetection(ConstantTree(false), core::DetectorConfig{},
                                  s.merged);
  EXPECT_EQ(run.max_score, 0);
  EXPECT_FALSE(run.alarm_time.has_value());
}

TEST(RunDetectionTest, AlwaysRansomTreeSaturatesTheScore) {
  BuiltScenario s = BuildScenario({wl::AppKind::kWebSurfing, "", ""},
                                  QuickScenario(), 1);
  core::DetectorConfig dc;
  DetectionRun run = RunDetection(ConstantTree(true), dc, s.merged);
  EXPECT_EQ(run.max_score, static_cast<int>(dc.window_slices));
  ASSERT_TRUE(run.alarm_time.has_value());
  // With every slice voting, the alarm fires after `threshold` slices.
  EXPECT_EQ(*run.alarm_time, dc.slice_length * dc.score_threshold);
}

TEST(RunDetectionTest, ScoredFromExcludesEarlierSlices) {
  BuiltScenario s = BuildScenario({wl::AppKind::kWebSurfing, "", ""},
                                  QuickScenario(), 1);
  DetectionRun run = RunDetection(ConstantTree(true), core::DetectorConfig{},
                                  s.merged, Seconds(1000));  // beyond the run
  EXPECT_GT(run.max_score, 0);
  EXPECT_EQ(run.max_score_scored, 0);
  EXPECT_FALSE(run.alarm_time.has_value());
}

TEST(RunDetectionTest, SlicesCoverTheWholeRun) {
  BuiltScenario s = BuildScenario({wl::AppKind::kWebSurfing, "", ""},
                                  QuickScenario(), 1);
  DetectionRun run = RunDetection(ConstantTree(false), core::DetectorConfig{},
                                  s.merged);
  ASSERT_FALSE(run.slices.empty());
  EXPECT_GE(run.slices.back().end_time,
            s.merged.back().request.time);
}

TEST(EvaluateAccuracyTest, AlwaysRansomTreeGivesFullFarZeroFrr) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.repetitions = 2;
  std::vector<ScenarioSpec> specs = {
      {wl::AppKind::kWebSurfing, "Mole", ""}};
  std::vector<CategoryAccuracy> acc =
      EvaluateAccuracy(ConstantTree(true), specs, ac);
  ASSERT_EQ(acc.size(), 1u);
  for (const AccuracyPoint& p : acc[0].points) {
    EXPECT_DOUBLE_EQ(p.far, 1.0) << "threshold " << p.threshold;
    EXPECT_DOUBLE_EQ(p.frr, 0.0) << "threshold " << p.threshold;
  }
}

TEST(EvaluateAccuracyTest, AlwaysBenignTreeGivesZeroFarFullFrr) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.repetitions = 2;
  std::vector<ScenarioSpec> specs = {
      {wl::AppKind::kWebSurfing, "Mole", ""}};
  std::vector<CategoryAccuracy> acc =
      EvaluateAccuracy(ConstantTree(false), specs, ac);
  ASSERT_EQ(acc.size(), 1u);
  for (const AccuracyPoint& p : acc[0].points) {
    EXPECT_DOUBLE_EQ(p.far, 0.0);
    EXPECT_DOUBLE_EQ(p.frr, 1.0);
  }
}

TEST(EvaluateAccuracyTest, CountsRunsPerCategory) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.repetitions = 3;
  std::vector<ScenarioSpec> specs = {
      {wl::AppKind::kWebSurfing, "Mole", ""},
      {wl::AppKind::kOutlookSync, "Mole", ""},   // same category (Normal)
      {wl::AppKind::kNone, "Mole", ""},          // RansomOnly category
  };
  std::vector<CategoryAccuracy> acc =
      EvaluateAccuracy(ConstantTree(false), specs, ac);
  ASSERT_EQ(acc.size(), 2u);
  for (const CategoryAccuracy& ca : acc) {
    if (ca.category == wl::AppCategory::kNormal) {
      EXPECT_EQ(ca.points[0].ransom_runs, 6u);
      EXPECT_EQ(ca.points[0].benign_runs, 6u);
    } else {
      EXPECT_EQ(ca.category, wl::AppCategory::kNone);
      EXPECT_EQ(ca.points[0].ransom_runs, 3u);
      EXPECT_EQ(ca.points[0].benign_runs, 0u);  // no background to test
    }
  }
}

TEST(EvaluateAccuracyTest, FrrMonotoneFarAntitoneInThreshold) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.repetitions = 2;
  std::vector<ScenarioSpec> specs = {{wl::AppKind::kWebSurfing, "Mole", ""}};
  std::vector<CategoryAccuracy> acc =
      EvaluateAccuracy(core::PretrainedTree(), specs, ac);
  for (const CategoryAccuracy& ca : acc) {
    for (std::size_t i = 1; i < ca.points.size(); ++i) {
      EXPECT_GE(ca.points[i].frr, ca.points[i - 1].frr);
      EXPECT_LE(ca.points[i].far, ca.points[i - 1].far);
    }
  }
}

TEST(LatencyTest, SkipsBenignSpecs) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.repetitions = 1;
  std::vector<ScenarioSpec> specs = {{wl::AppKind::kWebSurfing, "", ""},
                                     {wl::AppKind::kNone, "WannaCry", ""}};
  std::vector<LatencyResult> results =
      MeasureDetectionLatency(core::PretrainedTree(), specs, ac);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].spec.ransomware, "WannaCry");
}

TEST(LatencyTest, DetectedLatenciesArePositiveAndBounded) {
  AccuracyConfig ac;
  ac.scenario = QuickScenario();
  ac.scenario.duration = Seconds(30);
  ac.scenario.fileset_files = 900;  // enough data to outlast the score ramp
  ac.repetitions = 2;
  std::vector<ScenarioSpec> specs = {{wl::AppKind::kNone, "WannaCry", ""}};
  std::vector<LatencyResult> results =
      MeasureDetectionLatency(core::PretrainedTree(), specs, ac);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].detected, results[0].runs);
  EXPECT_GT(results[0].mean_latency_s, 0.0);
  EXPECT_LE(results[0].max_latency_s, 10.0);  // the paper's bound
}

TEST(GcExperimentTest, InsiderNeverCopiesLessThanConventional) {
  GcExperimentConfig gc;
  gc.geometry = nand::TestGeometry();
  gc.geometry.blocks_per_chip = 64;
  gc.retention_window = Seconds(2);
  ScenarioConfig sc = QuickScenario();
  sc.lba_space = 1024;
  for (std::uint64_t seed : {1ull, 2ull}) {
    BuiltScenario s =
        BuildScenario({wl::AppKind::kDatabase, "", ""}, sc, seed);
    GcResult r = RunGcExperiment(s, gc);
    EXPECT_GE(r.copies_insider, r.copies_conventional) << "seed " << seed;
  }
}

TEST(GcExperimentTest, OverheadPercentComputation) {
  GcResult r;
  r.copies_conventional = 100;
  r.copies_insider = 122;
  EXPECT_NEAR(r.OverheadPercent(), 22.0, 1e-9);
  r.copies_conventional = 0;
  r.copies_insider = 0;
  EXPECT_DOUBLE_EQ(r.OverheadPercent(), 0.0);
  r.copies_insider = 5;
  EXPECT_DOUBLE_EQ(r.OverheadPercent(), 100.0);
}

TEST(ConsistencyTrialTest, UndetectedWithoutDetector) {
  // An always-benign tree means the attack completes: the trial must report
  // non-detection (the control case for Table II).
  ConsistencyTrialConfig cfg;
  cfg.file_count = 12;
  cfg.file_min_bytes = 32 * 1024;
  cfg.file_max_bytes = 64 * 1024;
  cfg.writer_phase = 0;
  cfg.seed = 2;
  ConsistencyTrialResult r =
      RunConsistencyTrial(ConstantTree(false), cfg);
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.rolled_back);
}

// The range-recovery demo at its defaults: the attack on the protected range
// must raise an alarm, and the selective rollback must bring back every
// protected LBA's pre-attack content.
TEST(RangeRecoveryTest, DefaultsAlarmAndRestoreTheWholeRange) {
  for (const char* family : {"WannaCry", "Mole"}) {
    RangeRecoveryConfig cfg;
    cfg.ransomware = family;
    RangeRecoveryResult r = RunRangeRecovery(core::PretrainedTree(), cfg);
    EXPECT_TRUE(r.alarm) << family;
    EXPECT_EQ(r.protected_lbas_total, cfg.protected_blocks) << family;
    EXPECT_GT(r.report.restored, 0u) << family;
    EXPECT_EQ(r.protected_lbas_clean, r.protected_lbas_total) << family;
  }
}

}  // namespace
}  // namespace insider::host
