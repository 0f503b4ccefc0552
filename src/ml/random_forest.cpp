#include "ml/random_forest.h"

#include <algorithm>
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

  // Draw every tree's bootstrap (with replacement, training-set size) and
  // its seed up front, in the exact RNG order of the old sequential fit: n
  // row draws, then the seed, per tree. A bootstrap is kept as per-row draw
  // counts. Tree t then depends only on (draws[t], seeds[t]), never on
  // scheduling.
  const std::size_t n = data.size();
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<std::vector<std::uint32_t>> draws(
      num_trees, std::vector<std::uint32_t>(n, 0));
  std::vector<std::uint64_t> seeds(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ++draws[t][static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
    }
    seeds[t] = rng_.next();
  }

  // One columnar view (and one per-feature argsort) shared read-only by
  // every tree; a bootstrap is a count vector into it, not a row copy.
  const DatasetView view(data);

  std::vector<DecisionTree> trees(num_trees, DecisionTree(tree_options, 0));
  par::parallel_for(0, num_trees, [&](std::size_t t) {
    DecisionTree tree(tree_options, seeds[t]);
    tree.fit_view(view, draws[t]);
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

namespace {

/// Per-thread buffers of the batch traversal, kept across calls.
struct ForestScratch {
  std::vector<std::uint32_t> ids[2];  ///< ping-pong row ids
  std::vector<int> votes;             ///< [row * classes + class]
  /// A segment still to walk: the node its rows reached and their ids,
  /// held in `ids[side][begin, end)`.
  struct Frame {
    std::uint32_t node, begin, end, side;
  };
  std::vector<Frame> stack;
};

ForestScratch& forest_scratch() {
  static thread_local ForestScratch scratch;
  return scratch;
}

}  // namespace

void RandomForest::walk_block(const double* columns, std::size_t stride,
                              std::size_t rows, int* labels,
                              std::uint32_t* walked) const {
  auto& s = forest_scratch();
  const auto k = static_cast<std::size_t>(num_classes_);
  s.votes.assign(rows * k, 0);
  s.ids[0].resize(rows);
  s.ids[1].resize(rows);
  std::iota(s.ids[0].begin(), s.ids[0].end(), 0u);
  std::uint32_t* const ids[2] = {s.ids[0].data(), s.ids[1].data()};
  int* const votes = s.votes.data();
  const DecisionTree::Node* const nodes = nodes_.data();
  const std::size_t trees = roots_.size();

  // The rows still undecided sit in ids[0][0, active). Segments are visited
  // left subtree first, so the leaves tile [0, active) in order and each
  // survivor can be written back to ids[0] at or before its reading slot,
  // never over a segment still pending.
  std::size_t active = rows;
  for (std::size_t t = 0; t < trees && active > 0; ++t) {
    std::size_t kept = 0;
    s.stack.clear();
    s.stack.push_back({roots_[t], 0, static_cast<std::uint32_t>(active), 0});
    while (!s.stack.empty()) {
      auto f = s.stack.back();
      s.stack.pop_back();
      for (;;) {
        const DecisionTree::Node& node = nodes[f.node];
        std::uint32_t* const src = ids[f.side];
        if (node.feature < 0) {
          // Every row here votes for the leaf's class. A row's label and
          // walk count are stored on every vote; a row that has just won a
          // strict majority is not kept, so its last store stands.
          const int c = node.next;
          for (std::uint32_t i = f.begin; i < f.end; ++i) {
            const std::uint32_t row = src[i];
            const int v = ++votes[row * k + static_cast<std::size_t>(c)];
            labels[row] = c;
            walked[row] = static_cast<std::uint32_t>(t + 1);
            ids[0][kept] = row;
            kept += 2 * static_cast<std::size_t>(v) > trees ? 0 : 1;
          }
          break;
        }
        // Stable partition without branches: left rows go to the other
        // buffer in order, right rows back into this one at or before
        // their reading slot, then behind the left rows.
        std::uint32_t* const dst = ids[f.side ^ 1];
        const double* const column =
            columns + static_cast<std::size_t>(node.feature) * stride;
        const double threshold = node.threshold;
        std::uint32_t left = f.begin;
        std::uint32_t right = f.begin;
        for (std::uint32_t i = f.begin; i < f.end; ++i) {
          const std::uint32_t row = src[i];
          const bool goes_left = column[row] <= threshold;  // NaN: right
          dst[left] = row;
          src[right] = row;
          left += goes_left ? 1 : 0;
          right += goes_left ? 0 : 1;
        }
        std::copy(src + f.begin, src + right, dst + left);
        const std::uint32_t side = f.side ^ 1;
        if (left < f.end) {
          s.stack.push_back({static_cast<std::uint32_t>(node.next), left,
                             f.end, side});
        }
        if (left == f.begin) break;
        f = {f.node + 1, f.begin, left, side};
      }
    }
    active = kept;
  }
  // No strict majority after every tree: the first class with the most
  // votes.
  for (std::size_t i = 0; i < active; ++i) {
    const std::uint32_t row = ids[0][i];
    const int* v = votes + row * k;
    labels[row] = static_cast<int>(std::max_element(v, v + k) - v);
    walked[row] = static_cast<std::uint32_t>(trees);
  }
}

int RandomForest::predict(std::span<const double> row) const {
  obs::ScopedTimer span(predict_timer());
  PMIOT_CHECK(!roots_.empty(), "classifier not fitted");
  PMIOT_CHECK(row.size() >= width_, "row width mismatch");
  // A batch of one, walked on this thread: feature f sits at row[f * 1].
  int label = 0;
  std::uint32_t walked = 0;
  walk_block(row.data(), 1, 1, &label, &walked);
  rows_predicted_counter().add(1);
  trees_walked_counter().add(walked);
  return label;
}

std::vector<int> RandomForest::predict_columns(std::span<const double> columns,
                                               std::size_t rows) const {
  obs::ScopedTimer span(predict_timer());
  PMIOT_CHECK(!roots_.empty(), "classifier not fitted");
  PMIOT_CHECK(columns.size() >= rows * width_, "column block too narrow");
  std::vector<int> labels(rows);
  std::vector<std::uint32_t> walked(rows);
  // One shard per block of rows.
  const std::size_t blocks = (rows + kBlockRows - 1) / kBlockRows;
  par::parallel_for(0, blocks, [&](std::size_t b) {
    const std::size_t i = b * kBlockRows;
    walk_block(columns.data() + i, rows, std::min(kBlockRows, rows - i),
               labels.data() + i, walked.data() + i);
  });
  rows_predicted_counter().add(rows);
  trees_walked_counter().add(
      std::accumulate(walked.begin(), walked.end(), std::uint64_t{0}));
  return labels;
}

std::vector<int> RandomForest::predict_all(const Dataset& data) const {
  const std::size_t rows = data.size();
  std::vector<double> columns(width_ * rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& row = data.rows[i];
    PMIOT_CHECK(row.size() >= width_, "row width mismatch");
    for (std::size_t f = 0; f < width_; ++f) columns[f * rows + i] = row[f];
  }
  return predict_columns(columns, rows);
}

std::string RandomForest::name() const {
  return "random-forest(n=" + std::to_string(options_.num_trees) + ")";
}

}  // namespace pmiot::ml
