#include "core/decision_tree.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace insider::core {

bool DecisionTree::Classify(const FeatureVector& features,
                            std::vector<std::int32_t>* path) const {
  if (path != nullptr) path->clear();
  if (nodes_.empty()) return false;
  std::int32_t idx = 0;
  while (true) {
    if (path != nullptr) path->push_back(idx);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.is_leaf) return n.label;
    idx = (features[n.feature] <= n.threshold) ? n.left : n.right;
    assert(idx >= 0 && static_cast<std::size_t>(idx) < nodes_.size());
  }
}

std::size_t DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  return DepthFrom(0);
}

std::size_t DecisionTree::DepthFrom(std::int32_t node) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.is_leaf) return 1;
  return 1 + std::max(DepthFrom(n.left), DepthFrom(n.right));
}

std::int32_t DecisionTree::AddLeaf(bool label) {
  Node n;
  n.is_leaf = true;
  n.label = label;
  nodes_.push_back(n);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t DecisionTree::AddSplit(FeatureId feature, double threshold,
                                    std::int32_t left, std::int32_t right) {
  Node n;
  n.is_leaf = false;
  n.feature = feature;
  n.threshold = threshold;
  n.left = left;
  n.right = right;
  nodes_.push_back(n);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void DecisionTree::Pretty(std::int32_t node, int indent,
                          std::string& out) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  if (n.is_leaf) {
    out += n.label ? "-> RANSOMWARE\n" : "-> benign\n";
    return;
  }
  std::ostringstream os;
  os << "if " << FeatureName(n.feature) << " <= " << n.threshold << ":\n";
  out += os.str();
  Pretty(n.left, indent + 1, out);
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  out += "else:\n";
  Pretty(n.right, indent + 1, out);
}

std::string DecisionTree::ToPrettyString() const {
  if (nodes_.empty()) return "(empty tree)\n";
  std::string out;
  Pretty(0, 0, out);
  return out;
}

std::string DecisionTree::Serialize() const {
  std::ostringstream os;
  os << "tree v1 " << nodes_.size() << "\n";
  os.precision(17);
  for (const Node& n : nodes_) {
    if (n.is_leaf) {
      os << "leaf " << (n.label ? 1 : 0) << "\n";
    } else {
      os << "split " << static_cast<std::size_t>(n.feature) << " "
         << n.threshold << " " << n.left << " " << n.right << "\n";
    }
  }
  return os.str();
}

DecisionTree DecisionTree::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string word, version;
  std::size_t count = 0;
  if (!(is >> word >> version >> count) || word != "tree" || version != "v1") {
    throw std::invalid_argument("DecisionTree::Deserialize: bad header");
  }
  std::vector<Node> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string kind;
    if (!(is >> kind)) {
      throw std::invalid_argument("DecisionTree::Deserialize: truncated");
    }
    Node n;
    if (kind == "leaf") {
      int label = 0;
      if (!(is >> label)) {
        throw std::invalid_argument("DecisionTree::Deserialize: bad leaf");
      }
      n.is_leaf = true;
      n.label = (label != 0);
    } else if (kind == "split") {
      std::size_t feature = 0;
      if (!(is >> feature >> n.threshold >> n.left >> n.right) ||
          feature >= kFeatureCount) {
        throw std::invalid_argument("DecisionTree::Deserialize: bad split");
      }
      n.is_leaf = false;
      n.feature = static_cast<FeatureId>(feature);
    } else {
      throw std::invalid_argument("DecisionTree::Deserialize: bad node kind");
    }
    nodes.push_back(n);
  }
  // Validate child indices before accepting the tree.
  for (const Node& n : nodes) {
    if (n.is_leaf) continue;
    if (n.left < 0 || n.right < 0 ||
        static_cast<std::size_t>(n.left) >= nodes.size() ||
        static_cast<std::size_t>(n.right) >= nodes.size()) {
      throw std::invalid_argument("DecisionTree::Deserialize: bad child index");
    }
  }
  return DecisionTree(std::move(nodes));
}

}  // namespace insider::core
