// CART-style decision tree classifier (Gini impurity, axis-aligned splits).
//
// The building block for the random forest used in the §IV fingerprinting
// evaluation; also a reasonable standalone model for small feature sets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace pmiot::ml {

/// Hyper-parameters for tree induction.
struct TreeOptions {
  int max_depth = 12;           ///< hard depth limit
  std::size_t min_samples = 2;  ///< do not split nodes smaller than this
  /// Number of candidate features per split; 0 means all features
  /// (set to sqrt(width) by the random forest).
  std::size_t max_features = 0;
};

class DecisionTree final : public Classifier {
 public:
  /// One node of a tree in pre-order: a node's left child is always the
  /// next node (`id + 1`), so only the right child is stored. 16 bytes, so
  /// four nodes share a cache line.
  struct Node {
    double threshold = 0;  ///< go left when x[feature] <= threshold
    int feature = -1;      ///< -1 for leaves
    int next = 0;          ///< right child id, or the leaf's label
  };

  /// Walks the pre-order tree rooted at `nodes[root]` for row `x` and
  /// returns its leaf's label. `next` indexes `nodes`, so a forest's
  /// concatenated array walks with the same code. The caller has checked
  /// that `x` is at least as wide as the fitted data; NaN goes right.
  static int walk(const Node* nodes, std::size_t root, const double* x) {
    const Node* n = nodes + root;
    while (n->feature >= 0) {
      n = x[n->feature] <= n->threshold ? n + 1 : nodes + n->next;
    }
    return n->next;
  }

  explicit DecisionTree(TreeOptions options = {}, std::uint64_t seed = 1);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::string name() const override { return "decision-tree"; }

  /// Fits on `view` restricted to the rows listed in `sample` (duplicates
  /// allowed — a bootstrap draw is just a multiset of row ids). This is the
  /// random forest's path: no per-tree copy of the dataset, and `view`'s
  /// shared `sort_index` (if present) replaces the per-tree argsort with a
  /// linear counting pass. Equivalent to `fit` on the materialized sample.
  void fit_view(const DatasetView& view, std::span<const std::size_t> sample);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  /// The fitted nodes in pre-order (root first).
  std::span<const Node> nodes() const noexcept { return nodes_; }

 private:
  friend class PresortedBuilder;

  TreeOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  int depth_ = 0;
  std::size_t width_ = 0;  ///< fitted feature count; narrower rows throw
};

}  // namespace pmiot::ml
