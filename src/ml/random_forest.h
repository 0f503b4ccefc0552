// Random forest: bootstrap-aggregated decision trees with random feature
// subsets per split. The strongest of the fingerprinting models in §IV.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/decision_tree.h"

namespace pmiot::ml {

struct ForestOptions {
  int num_trees = 25;
  TreeOptions tree;  ///< tree.max_features 0 -> sqrt(width) at fit time
};

/// Fit strategy: every tree's bootstrap rows and seed are drawn up front in
/// the sequential order the seed implementation used, after which tree t
/// depends only on (sample[t], seed[t]). The trees then train in parallel
/// over `pmiot::par`'s shared pool against one shared columnar
/// `DatasetView` (bootstrap = index vector, not a row copy), each writing
/// only slot t — so the fitted forest is bitwise identical at any
/// `PMIOT_THREADS`, and bitwise identical to the old serial fit.
///
/// Inference: the fitted trees are concatenated, in tree order, into one
/// flat array of 16-byte pre-order nodes (`DecisionTree::Node`, right-child
/// ids rebased onto the array), with `roots_[t]` the first node of tree t.
/// A row walks the trees in order and stops as soon as one class holds a
/// strict majority of all trees (2 * votes > trees): no other class can
/// then reach its count, so the answer — the first class with the most
/// votes — is the one the full vote gives.

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 7);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::string name() const override;

  /// Fans the rows out over `pmiot::par` like the base class, through the
  /// same flat vote as `predict`.
  std::vector<int> predict_all(const Dataset& data) const override;

  std::size_t tree_count() const noexcept { return roots_.size(); }

 private:
  /// The strict-majority vote for one row of checked width; sets the number
  /// of trees it walked in `walked`.
  int vote(const double* x, std::size_t& walked) const;

  ForestOptions options_;
  Rng rng_;
  std::vector<DecisionTree::Node> nodes_;
  std::vector<std::uint32_t> roots_;
  std::size_t width_ = 0;
  int num_classes_ = 0;
};

}  // namespace pmiot::ml
