// Seed-faithful tree and forest fits: the references `ml::DecisionTree`'s
// presorted builder and `ml::RandomForest`'s parallel fit are held to.
//
// `PerNodeSortTree` re-sorts every candidate feature at every node —
// O(d·n·log n) per node — with the same score arithmetic, tie-breaking, and
// RNG consumption as the production builder, so both choose bit-identical
// splits. `SeedForest` is the serial seed forest: one deep-copied bootstrap
// dataset per tree, drawn from one RNG stream in the production order (n
// row draws, then the tree seed, per tree), trees grown by
// `PerNodeSortTree`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace pmiot::reference {

class PerNodeSortTree final : public ml::Classifier {
 public:
  explicit PerNodeSortTree(ml::TreeOptions options = {},
                           std::uint64_t seed = 1);

  void fit(const ml::Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::string name() const override { return "per-node-sort-tree"; }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }

 private:
  struct Node {
    int feature = -1;      ///< -1 for leaves
    double threshold = 0;  ///< go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    int label = 0;
  };

  int build(const ml::Dataset& data, std::vector<std::size_t>& indices,
            int depth);

  ml::TreeOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  int depth_ = 0;
};

class SeedForest final : public ml::Classifier {
 public:
  explicit SeedForest(ml::ForestOptions options = {}, std::uint64_t seed = 7);

  void fit(const ml::Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::string name() const override { return "seed-forest"; }

  /// Every tree's vote for `row`, counted per class: the full vote whose
  /// first maximum `predict` returns.
  std::vector<int> votes(std::span<const double> row) const;

 private:
  ml::ForestOptions options_;
  Rng rng_;
  std::vector<PerNodeSortTree> trees_;
  int num_classes_ = 0;
};

}  // namespace pmiot::reference
