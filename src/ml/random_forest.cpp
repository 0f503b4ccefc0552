#include "ml/random_forest.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace pmiot::ml {
namespace {

obs::Counter& rows_predicted_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("ml.forest.rows_predicted");
  return c;
}

obs::Counter& trees_walked_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("ml.forest.trees_walked");
  return c;
}

obs::Timer& predict_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("ml.forest.predict");
  return t;
}

}  // namespace

RandomForest::RandomForest(ForestOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.num_trees >= 1, "need at least one tree");
}

void RandomForest::fit(const Dataset& data) {
  static obs::Timer& fit_timer =
      obs::MetricsRegistry::instance().timer("ml.forest.fit");
  obs::ScopedTimer span(fit_timer);
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  num_classes_ = data.num_classes();
  nodes_.clear();
  roots_.clear();
  width_ = 0;

  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(data.width())))));
  }

  // Draw every tree's bootstrap rows (with replacement, training-set size)
  // and its seed up front, in the exact RNG order of the old sequential
  // fit: n index draws, then the seed, per tree. Tree t then depends only
  // on (samples[t], seeds[t]), never on scheduling.
  const std::size_t n = data.size();
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<std::vector<std::size_t>> samples(num_trees);
  std::vector<std::uint64_t> seeds(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    samples[t].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      samples[t][i] = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    seeds[t] = rng_.next();
  }

  // One columnar view (and one per-feature argsort) shared read-only by
  // every tree; a bootstrap is an index vector into it, not a row copy.
  DatasetView view(data);
  view.ensure_sort_index();

  std::vector<DecisionTree> trees(num_trees, DecisionTree(tree_options, 0));
  par::parallel_for(0, num_trees, [&](std::size_t t) {
    DecisionTree tree(tree_options, seeds[t]);
    tree.fit_view(view, samples[t]);
    trees[t] = std::move(tree);
  });

  // Concatenate the trees, in order, into one flat pre-order array. Left
  // children stay implicit (id + 1); right-child ids are rebased onto it.
  std::size_t total = 0;
  for (const auto& tree : trees) total += tree.node_count();
  PMIOT_CHECK(total <= static_cast<std::size_t>(
                           std::numeric_limits<int>::max()),
              "forest too large for 32-bit node ids");
  nodes_.reserve(total);
  roots_.reserve(num_trees);
  for (const auto& tree : trees) {
    const auto base = nodes_.size();
    roots_.push_back(static_cast<std::uint32_t>(base));
    for (auto node : tree.nodes()) {
      if (node.feature >= 0) node.next += static_cast<int>(base);
      nodes_.push_back(node);
    }
  }
  width_ = data.width();
}

int RandomForest::vote(const double* x, std::size_t& walked) const {
  // One vote slot per class; the heap only serves unusually many classes.
  constexpr std::size_t kStackClasses = 16;
  std::array<int, kStackClasses> stack_votes{};
  std::vector<int> heap_votes;
  const auto k = static_cast<std::size_t>(num_classes_);
  int* votes = stack_votes.data();
  if (k > kStackClasses) {
    heap_votes.assign(k, 0);
    votes = heap_votes.data();
  }
  const DecisionTree::Node* nodes = nodes_.data();
  const std::size_t trees = roots_.size();
  for (std::size_t t = 0; t < trees; ++t) {
    const int c = DecisionTree::walk(nodes, roots_[t], x);
    // A strict majority of all trees: no other class can still reach
    // votes[c], so the full vote would return c as well.
    if (2 * static_cast<std::size_t>(++votes[c]) > trees) {
      walked = t + 1;
      return c;
    }
  }
  walked = trees;
  return static_cast<int>(std::max_element(votes, votes + k) - votes);
}

int RandomForest::predict(std::span<const double> row) const {
  obs::ScopedTimer span(predict_timer());
  PMIOT_CHECK(!roots_.empty(), "classifier not fitted");
  PMIOT_CHECK(row.size() >= width_, "row width mismatch");
  std::size_t walked = 0;
  const int label = vote(row.data(), walked);
  rows_predicted_counter().add(1);
  trees_walked_counter().add(walked);
  return label;
}

std::vector<int> RandomForest::predict_all(const Dataset& data) const {
  obs::ScopedTimer span(predict_timer());
  PMIOT_CHECK(!roots_.empty(), "classifier not fitted");
  std::vector<int> out(data.size());
  std::vector<std::uint32_t> walked(data.size());
  par::parallel_for(0, data.size(), [&](std::size_t i) {
    const auto& row = data.rows[i];
    PMIOT_CHECK(row.size() >= width_, "row width mismatch");
    std::size_t w = 0;
    out[i] = vote(row.data(), w);
    walked[i] = static_cast<std::uint32_t>(w);
  });
  rows_predicted_counter().add(data.size());
  trees_walked_counter().add(
      std::accumulate(walked.begin(), walked.end(), std::uint64_t{0}));
  return out;
}

std::string RandomForest::name() const {
  return "random-forest(n=" + std::to_string(options_.num_trees) + ")";
}

}  // namespace pmiot::ml
