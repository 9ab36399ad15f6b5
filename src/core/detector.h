// The real-time detection engine (paper Algorithm 1 + Fig. 4).
//
// Requests stream in; every `slice_length` of virtual time the detector
// closes the slice, computes the six features over the sliding window, asks
// the decision tree for a 0/1 verdict, and maintains a score equal to the
// number of positive verdicts among the last `window_slices` slices. A score
// reaching `score_threshold` (paper: 3 of 10) raises the ransomware alarm.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/io.h"
#include "common/time.h"
#include "core/counting_table.h"
#include "core/decision_tree.h"
#include "core/features.h"

namespace insider::core {

struct DetectorConfig {
  SimTime slice_length = Seconds(1);
  std::size_t window_slices = 10;  ///< N: slices per time window
  int score_threshold = 3;
  /// Most recent slice records kept in History(). Firmware RAM is bounded,
  /// so the record log is a ring: older slices fall off the front once the
  /// cap is reached. 0 opts into unbounded history (offline experiments
  /// that replay a whole trace and read every slice back).
  std::size_t history_limit = 4096;
  CountingTable::Config table;
};

/// One closed time slice: the features it produced, the tree's vote, and the
/// running score after incorporating it. Experiments consume these records
/// to draw the paper's Figs. 1, 2, 4 and 7.
struct SliceRecord {
  SliceIndex slice = 0;
  SimTime end_time = 0;
  FeatureVector features;
  bool vote = false;
  int score = 0;
  /// Decision-tree nodes visited for this slice, root to leaf — the "why"
  /// behind the vote. obs::DetectorIntrospectionJson renders it alongside
  /// the feature values so detection-matrix regressions are diagnosable.
  std::vector<std::int32_t> tree_path;
};

class Detector {
 public:
  Detector(const DetectorConfig& config, DecisionTree tree);

  /// Feed one block-I/O request header. Requests must arrive in
  /// non-decreasing time order; elapsed slices are closed first. Trims are
  /// ignored (the detector models the paper's R/W-only header view).
  void OnRequest(const IoRequest& request);

  /// Close every slice that ends at or before `now` (idle time still ticks).
  void AdvanceTo(SimTime now);

  /// Virtual time at which the currently open slice will close — the due
  /// time of the firmware scheduler's detector tick.
  SimTime NextSliceEnd() const {
    return (current_slice_ + 1) * config_.slice_length;
  }

  // Alarm state --------------------------------------------------------

  int Score() const { return score_; }
  bool AlarmActive() const { return score_ >= config_.score_threshold; }
  /// Time the score first reached the threshold, if it ever did.
  std::optional<SimTime> FirstAlarmTime() const { return first_alarm_; }

  // Introspection ------------------------------------------------------

  const DetectorConfig& Config() const { return config_; }
  const CountingTable& Table() const { return table_; }
  const DecisionTree& Tree() const { return tree_; }
  /// The most recent closed slices (all of them when history_limit is 0).
  const std::deque<SliceRecord>& History() const { return history_; }

  /// Reset all runtime state (score, tables, history); keeps the tree.
  void Reset();

  // DRAM-pressure degradation (core::DetectorPool) ---------------------

  /// Lower the history ring cap in place, trimming the oldest records to
  /// fit. Introspection depth is the only loss: scores, votes, and features
  /// are untouched. Never raises the cap; a 0 (unbounded) cap becomes `n`.
  void SetHistoryLimit(std::size_t n);

  /// Lower the counting-table capacity caps in place (see
  /// CountingTable::ShrinkTo); least-recently-active runs are shed until the
  /// table fits. Detection semantics over the surviving runs are unchanged.
  void ShrinkTableTo(std::size_t max_entries, std::size_t max_hash_keys);

 private:
  void CloseSlice();
  FeatureVector ComputeFeatures(const SliceCounters& counters) const;

  DetectorConfig config_;
  DecisionTree tree_;
  CountingTable table_;

  SliceIndex current_slice_ = 0;
  std::deque<bool> votes_;              ///< last <= N verdicts
  std::deque<std::uint64_t> owio_hist_; ///< last <= N per-slice OWIO values
  int score_ = 0;
  std::optional<SimTime> first_alarm_;
  std::deque<SliceRecord> history_;  ///< ring of the last history_limit slices
};

}  // namespace insider::core
