#include "reference/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace pmiot::reference {
namespace {

double gini(const std::vector<std::size_t>& counts, std::size_t total) {
  double g = 1.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

int majority(const std::vector<std::size_t>& counts) {
  return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                          counts.begin());
}

}  // namespace

PerNodeSortTree::PerNodeSortTree(ml::TreeOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.max_depth >= 1, "max_depth must be at least 1");
  PMIOT_CHECK(options.min_samples >= 1, "min_samples must be at least 1");
}

void PerNodeSortTree::fit(const ml::Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  nodes_.clear();
  depth_ = 0;
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  build(data, indices, 0);
}

int PerNodeSortTree::build(const ml::Dataset& data,
                           std::vector<std::size_t>& indices, int depth) {
  depth_ = std::max(depth_, depth);
  const auto k = static_cast<std::size_t>(data.num_classes());
  std::vector<std::size_t> counts(k, 0);
  for (auto i : indices) ++counts[static_cast<std::size_t>(data.labels[i])];
  const int node_label = majority(counts);
  const double node_gini = gini(counts, indices.size());

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{-1, 0.0, -1, -1, node_label});

  if (depth >= options_.max_depth || indices.size() < options_.min_samples ||
      node_gini == 0.0) {
    return node_id;
  }

  // Candidate features (all, or a random subset for forests).
  const std::size_t width = data.width();
  std::vector<std::size_t> features(width);
  std::iota(features.begin(), features.end(), 0);
  if (options_.max_features > 0 && options_.max_features < width) {
    rng_.shuffle(features);
    features.resize(options_.max_features);
  }

  // Best split search: sort indices by each candidate feature and scan.
  double best_score = node_gini;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::size_t> sorted = indices;
  for (auto f : features) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return data.rows[a][f] < data.rows[b][f];
    });
    std::vector<std::size_t> left_counts(k, 0);
    std::vector<std::size_t> right_counts = counts;
    for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
      const auto lbl = static_cast<std::size_t>(data.labels[sorted[pos]]);
      ++left_counts[lbl];
      --right_counts[lbl];
      const double x = data.rows[sorted[pos]][f];
      const double x_next = data.rows[sorted[pos + 1]][f];
      if (x == x_next) continue;  // cannot split between equal values
      const auto n_left = pos + 1;
      const auto n_right = sorted.size() - n_left;
      const double score =
          (static_cast<double>(n_left) * gini(left_counts, n_left) +
           static_cast<double>(n_right) * gini(right_counts, n_right)) /
          static_cast<double>(sorted.size());
      if (score + 1e-12 < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (x + x_next);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no impurity-reducing split found

  std::vector<std::size_t> left_idx, right_idx;
  for (auto i : indices) {
    if (data.rows[i][static_cast<std::size_t>(best_feature)] <= best_threshold)
      left_idx.push_back(i);
    else
      right_idx.push_back(i);
  }
  PMIOT_ASSERT(!left_idx.empty() && !right_idx.empty(),
               "degenerate split selected");

  const int left = build(data, left_idx, depth + 1);
  const int right = build(data, right_idx, depth + 1);
  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

int PerNodeSortTree::predict(std::span<const double> row) const {
  PMIOT_CHECK(!nodes_.empty(), "classifier not fitted");
  int id = 0;
  while (nodes_[static_cast<std::size_t>(id)].feature >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    PMIOT_CHECK(static_cast<std::size_t>(n.feature) < row.size(),
                "row width mismatch");
    id = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right;
  }
  return nodes_[static_cast<std::size_t>(id)].label;
}

SeedForest::SeedForest(ml::ForestOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.num_trees >= 1, "need at least one tree");
}

void SeedForest::fit(const ml::Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  num_classes_ = data.num_classes();
  trees_.clear();
  ml::TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(data.width())))));
  }
  for (int t = 0; t < options_.num_trees; ++t) {
    ml::Dataset sample;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
      sample.append(data.rows[j], data.labels[j]);
    }
    PerNodeSortTree tree(tree_options, rng_.next());
    tree.fit(sample);
    trees_.push_back(std::move(tree));
  }
}

int SeedForest::predict(std::span<const double> row) const {
  PMIOT_CHECK(!trees_.empty(), "classifier not fitted");
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  for (const auto& tree : trees_) {
    ++votes[static_cast<std::size_t>(tree.predict(row))];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

}  // namespace pmiot::reference
