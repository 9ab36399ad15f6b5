// Binary decision tree over the six features (paper §III-A: "Owing to the
// resource limitation ... we utilized a binary decision tree").
//
// Nodes live in a flat vector; classification is a handful of compares and
// array hops with no allocation — this is the per-slice hot path whose cost
// the paper bounds at a few hundred nanoseconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/features.h"

namespace insider::core {

class DecisionTree {
 public:
  struct Node {
    bool is_leaf = true;
    bool label = false;        ///< leaf verdict: ransomware?
    FeatureId feature{};       ///< split attribute (internal nodes)
    double threshold = 0.0;    ///< go left if value <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  DecisionTree() = default;
  explicit DecisionTree(std::vector<Node> nodes) : nodes_(std::move(nodes)) {}

  bool Empty() const { return nodes_.empty(); }
  std::size_t NodeCount() const { return nodes_.size(); }
  std::size_t Depth() const;
  const std::vector<Node>& Nodes() const { return nodes_; }

  /// True = ransomware. An empty tree votes false.
  bool Classify(const FeatureVector& features) const {
    return Classify(features, nullptr);
  }
  /// As above; when `path` is non-null it receives the indices of every node
  /// visited, root to leaf (empty for an empty tree). This is the detector's
  /// introspection hook: a recorded path makes a surprising vote replayable
  /// node-by-node against the feature vector that produced it.
  bool Classify(const FeatureVector& features,
                std::vector<std::int32_t>* path) const;

  /// Human-readable if/else rendering (for docs and debugging).
  std::string ToPrettyString() const;

  /// Line-oriented text round-trip so a trained tree can ship as firmware
  /// configuration.
  std::string Serialize() const;
  static DecisionTree Deserialize(const std::string& text);

  /// Builder used by the trainer: appends a node, returns its index.
  std::int32_t AddLeaf(bool label);
  std::int32_t AddSplit(FeatureId feature, double threshold,
                        std::int32_t left, std::int32_t right);

 private:
  std::size_t DepthFrom(std::int32_t node) const;
  void Pretty(std::int32_t node, int indent, std::string& out) const;

  std::vector<Node> nodes_;  ///< index 0 is the root
};

}  // namespace insider::core
