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
/// depends only on (draws[t], seed[t]). The trees then train in parallel
/// over `pmiot::par`'s shared pool against one shared columnar
/// `DatasetView` (bootstrap = per-row draw counts, not a row copy), each
/// writing only slot t — so the fitted forest is bitwise identical at any
/// `PMIOT_THREADS`, and bitwise identical to the old serial fit.
///
/// Inference: the fitted trees are concatenated, in tree order, into one
/// flat array of 16-byte pre-order nodes (`DecisionTree::Node`, right-child
/// ids rebased onto the array), with `roots_[t]` the first node of tree t.
/// A batch is walked tree-major, `kBlockRows` rows at a time, from a
/// feature-major column block: each tree is walked once per block, and at
/// every internal node the row ids that reached it are stably partitioned,
/// without branches, between two ping-pong buffers by
/// `column[row] <= threshold` (NaN goes right). At a leaf every row in the
/// segment gets its vote, and a row leaves the batch as soon as one class
/// holds a strict majority of all trees (2 * votes > trees): no other class
/// can then reach its count, so the answer, the first class with the most
/// votes, is the one the full vote gives. A single row is a batch of one.

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 7);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::string name() const override;

  /// Rows of one block of the batch traversal.
  static constexpr std::size_t kBlockRows = 256;

  /// `predict_columns` over the rows copied once into a column block.
  std::vector<int> predict_all(const Dataset& data) const override;

  /// Predictions for `rows` rows given feature-major: feature f of row i
  /// at `columns[f * rows + i]`, for at least the fitted width's features.
  /// The blocks of `kBlockRows` rows fan out over `pmiot::par`.
  std::vector<int> predict_columns(std::span<const double> columns,
                                   std::size_t rows) const;

  std::size_t tree_count() const noexcept { return roots_.size(); }
  /// Every tree's nodes, concatenated in tree order, right-child ids rebased.
  std::span<const DecisionTree::Node> nodes() const noexcept { return nodes_; }

 private:
  /// Walks `rows` (at most `kBlockRows`) rows whose feature f of row i is
  /// `columns[f * stride + i]`, writing each row's label and the number of
  /// trees it walked.
  void walk_block(const double* columns, std::size_t stride, std::size_t rows,
                  int* labels, std::uint32_t* walked) const;

  ForestOptions options_;
  Rng rng_;
  std::vector<DecisionTree::Node> nodes_;
  std::vector<std::uint32_t> roots_;
  std::size_t width_ = 0;
  int num_classes_ = 0;
};

}  // namespace pmiot::ml
