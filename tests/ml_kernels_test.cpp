// Tests for the columnar ML training kernels: randomized presorted-vs-naive
// tree equivalence (including degenerate corners and infinite features),
// weighted-bootstrap fits against the materialized sample, NaN rejection,
// forest determinism across pool widths and against a golden node hash, the
// flat forest's early-exit vote against the seed forest's full vote, the
// tree-major batch traversal around the block size and on campaign-shaped
// batches, batch-vs-per-row prediction identity, kNN tie-breaking with duplicated
// training points and batch kNN against an exact full-sort search, and the
// kmeans 1-D fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "reference/decision_tree.h"
#include "reference/kmeans.h"

namespace pmiot::ml {
namespace {

/// Gaussian class clusters: the first half of the features carry the class
/// signal, the rest are noise.
Dataset random_clusters(std::size_t n, std::size_t d, int classes, Rng& rng) {
  std::vector<std::vector<double>> centroids(static_cast<std::size_t>(classes),
                                             std::vector<double>(d, 0.0));
  for (auto& c : centroids) {
    for (std::size_t f = 0; f < d / 2 + 1; ++f) {
      c[f] = rng.uniform(-2.0, 2.0);
    }
  }
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::size_t>(
        rng.uniform_int(0, classes - 1));
    std::vector<double> row(d);
    for (std::size_t f = 0; f < d; ++f) {
      row[f] = centroids[cls][f] + rng.normal(0.0, 1.0);
    }
    data.append(std::move(row), static_cast<int>(cls));
  }
  return data;
}

std::vector<int> per_row_predictions(const Classifier& model,
                                     const Dataset& data) {
  std::vector<int> out;
  out.reserve(data.size());
  for (const auto& row : data.rows) out.push_back(model.predict(row));
  return out;
}

/// Fits the presorted tree and the per-node-sort reference from identical
/// options/seed and requires identical structure and identical predictions
/// on train + probe.
void expect_split_algorithms_equivalent(const Dataset& train,
                                        const Dataset& probe,
                                        TreeOptions options,
                                        std::uint64_t seed) {
  DecisionTree fast(options, seed);
  fast.fit(train);
  reference::PerNodeSortTree naive(options, seed);
  naive.fit(train);

  EXPECT_EQ(fast.node_count(), naive.node_count());
  EXPECT_EQ(fast.depth(), naive.depth());
  EXPECT_EQ(per_row_predictions(fast, train), per_row_predictions(naive, train));
  EXPECT_EQ(per_row_predictions(fast, probe), per_row_predictions(naive, probe));
}

// --- Presorted tree vs per-node-sort reference -------------------------------

TEST(PresortedTree, MatchesPerNodeSortAcrossRandomizedConfigs) {
  Rng rng(101);
  std::uint64_t seed = 1;
  for (int round = 0; round < 3; ++round) {
    const Dataset train = random_clusters(400, 8, 4, rng);
    const Dataset probe = random_clusters(150, 8, 4, rng);
    for (int max_depth : {3, 6, 12}) {
      for (std::size_t min_samples : {std::size_t{2}, std::size_t{25}}) {
        for (std::size_t max_features : {std::size_t{0}, std::size_t{2}}) {
          expect_split_algorithms_equivalent(
              train, probe,
              TreeOptions{.max_depth = max_depth,
                          .min_samples = min_samples,
                          .max_features = max_features},
              seed++);
        }
      }
    }
  }
}

TEST(PresortedTree, ConstantFeatureCorner) {
  Rng rng(202);
  Dataset train = random_clusters(300, 6, 3, rng);
  for (auto& row : train.rows) row[2] = 1.5;  // never splittable
  Dataset probe = random_clusters(100, 6, 3, rng);
  for (auto& row : probe.rows) row[2] = 1.5;
  expect_split_algorithms_equivalent(train, probe, TreeOptions{}, 7);
}

TEST(PresortedTree, AllLabelsEqualCorner) {
  Rng rng(303);
  Dataset train = random_clusters(200, 5, 3, rng);
  for (auto& label : train.labels) label = 2;  // pure root -> single leaf
  const Dataset probe = random_clusters(50, 5, 3, rng);
  expect_split_algorithms_equivalent(train, probe, TreeOptions{}, 7);
  DecisionTree tree(TreeOptions{}, 7);
  tree.fit(train);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(probe.rows.front()), 2);
}

TEST(PresortedTree, DuplicatedValuesCorner) {
  // Quantized features produce long equal-value runs, exercising the
  // boundary-skip and the stability of the partition under ties.
  Rng rng(404);
  Dataset train;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(4);
    for (auto& x : row) x = static_cast<double>(rng.uniform_int(0, 3));
    train.append(std::move(row), static_cast<int>(rng.uniform_int(0, 2)));
  }
  const Dataset probe = random_clusters(100, 4, 3, rng);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    expect_split_algorithms_equivalent(train, probe, TreeOptions{}, seed);
    expect_split_algorithms_equivalent(
        train, probe, TreeOptions{.max_depth = 4, .max_features = 2}, seed);
  }
  // -0.0 and 0.0 are one value: no split may fall between them, even
  // though a split there would separate the classes perfectly.
  Dataset zeros;
  for (int i = 0; i < 4; ++i) zeros.append({-0.0}, 0);
  for (int i = 0; i < 4; ++i) zeros.append({0.0}, 1);
  DecisionTree zero_tree(TreeOptions{}, 1);
  zero_tree.fit(zeros);
  EXPECT_EQ(zero_tree.node_count(), 1u);
  expect_split_algorithms_equivalent(zeros, zeros, TreeOptions{}, 1);
}

// Two adjacent doubles whose midpoint rounds up to the larger one.
constexpr double kBelow = 0x1.03fffffffffffp+7;
constexpr double kAbove = 0x1.04p+7;

TEST(PresortedTree, AdjacentDoubleSplitAtSegmentEnd) {
  ASSERT_EQ(0.5 * (kBelow + kAbove), kAbove);  // the rounding this covers
  // The only split separates kBelow from kAbove, the segment maximum. A
  // threshold of kAbove would send every row left.
  Dataset train;
  for (int i = 0; i < 4; ++i) train.append({kBelow}, 0);
  for (int i = 0; i < 3; ++i) train.append({kAbove}, 1);
  DecisionTree tree(TreeOptions{}, 1);
  tree.fit(train);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.predict(std::vector<double>{kBelow}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{kAbove}), 1);
  expect_split_algorithms_equivalent(train, train, TreeOptions{}, 1);
}

TEST(PresortedTree, AdjacentDoubleSplitMidSegment) {
  // The best split of this stump lies between kBelow and kAbove, with
  // larger values above. A threshold of kAbove would move the kAbove rows
  // to the left leaf, whose majority is class 0.
  Dataset train;
  for (int i = 0; i < 4; ++i) train.append({kBelow, 0.0}, 0);
  for (int i = 0; i < 2; ++i) train.append({kAbove, 0.0}, 1);
  for (int i = 0; i < 2; ++i) train.append({200.0, 0.0}, 1);
  const TreeOptions stump{.max_depth = 1};
  DecisionTree tree(stump, 1);
  tree.fit(train);
  EXPECT_EQ(tree.predict(std::vector<double>{kBelow, 0.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{kAbove, 0.0}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{200.0, 0.0}), 1);
  expect_split_algorithms_equivalent(train, train, stump, 1);
  expect_split_algorithms_equivalent(train, train, TreeOptions{}, 1);
}

TEST(PresortedTree, InfiniteFeaturesMatchPerNodeSort) {
  // ±∞ are ordinary ends of the value order: the midpoint with an infinite
  // neighbour is infinite or NaN, and both fall back to a threshold that
  // sends exactly the lower values left.
  Rng rng(414);
  const double inf = std::numeric_limits<double>::infinity();
  Dataset train = random_clusters(300, 4, 3, rng);
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (i % 9 == 0) train.rows[i][i % 4] = -inf;
    if (i % 11 == 0) train.rows[i][(i + 1) % 4] = inf;
  }
  train.append({-inf, inf, -inf, inf}, 0);
  train.append({inf, -inf, inf, -inf}, 1);
  Dataset probe = random_clusters(100, 4, 3, rng);
  probe.append({-inf, -inf, inf, inf}, 0);
  for (std::uint64_t seed : {1u, 2u}) {
    expect_split_algorithms_equivalent(train, probe, TreeOptions{}, seed);
    expect_split_algorithms_equivalent(
        train, probe, TreeOptions{.max_depth = 5, .max_features = 2}, seed);
  }
  Dataset stump;
  for (int i = 0; i < 3; ++i) stump.append({-inf}, 0);
  for (int i = 0; i < 3; ++i) stump.append({inf}, 1);
  expect_split_algorithms_equivalent(stump, stump, TreeOptions{}, 1);
  const ForestOptions forest_options{.num_trees = 8, .tree = {}};
  RandomForest forest(forest_options, 3);
  forest.fit(train);
  reference::SeedForest seed_forest(forest_options, 3);
  seed_forest.fit(train);
  EXPECT_EQ(forest.predict_all(probe), seed_forest.predict_all(probe));
}

TEST(PresortedTree, RejectsNaNTrainingFeatures) {
  Rng rng(424);
  Dataset train = random_clusters(200, 3, 2, rng);
  for (std::size_t i = 0; i < train.size(); i += 7) {
    train.rows[i][i % 3] = std::numeric_limits<double>::quiet_NaN();
  }
  DecisionTree tree(TreeOptions{}, 1);
  EXPECT_THROW(tree.fit(train), InvalidArgument);
  RandomForest forest(ForestOptions{.num_trees = 4, .tree = {}}, 1);
  EXPECT_THROW(forest.fit(train), InvalidArgument);
  EXPECT_THROW(DatasetView{train}, InvalidArgument);
}

// --- Weighted bootstrap vs the materialized sample ---------------------------

/// The multiset of row ids that per-row draw counts stand for.
std::vector<std::size_t> expand_draws(std::span<const std::uint32_t> draws) {
  std::vector<std::size_t> sample;
  for (std::size_t r = 0; r < draws.size(); ++r) {
    sample.insert(sample.end(), draws[r], r);
  }
  return sample;
}

/// Fits `fit_view` on `draws` and the per-node-sort reference on the
/// materialized sample from identical options/seed, and requires identical
/// structure and identical predictions on the sample and on `probe`.
void expect_weighted_matches_materialized(const Dataset& data,
                                          std::span<const std::uint32_t> draws,
                                          const Dataset& probe,
                                          TreeOptions options,
                                          std::uint64_t seed) {
  const Dataset sample = take(data, expand_draws(draws));
  const DatasetView view(data);
  DecisionTree fast(options, seed);
  fast.fit_view(view, draws);
  reference::PerNodeSortTree naive(options, seed);
  naive.fit(sample);

  EXPECT_EQ(fast.node_count(), naive.node_count());
  EXPECT_EQ(fast.depth(), naive.depth());
  EXPECT_EQ(per_row_predictions(fast, sample),
            per_row_predictions(naive, sample));
  EXPECT_EQ(per_row_predictions(fast, probe), per_row_predictions(naive, probe));
}

/// A bootstrap of `n` draws over `rows` rows, as per-row counts.
std::vector<std::uint32_t> bootstrap_draws(std::size_t rows, std::size_t n,
                                           Rng& rng) {
  std::vector<std::uint32_t> draws(rows, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++draws[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rows) - 1))];
  }
  return draws;
}

TEST(WeightedBootstrap, RandomBootstrapsMatchMaterializedSample) {
  Rng rng(2101);
  const Dataset data = random_clusters(240, 5, 3, rng);
  const Dataset probe = random_clusters(100, 5, 3, rng);
  std::uint64_t seed = 1;
  for (int round = 0; round < 4; ++round) {
    const auto draws = bootstrap_draws(data.size(), data.size(), rng);
    for (std::size_t max_features : {std::size_t{0}, std::size_t{2}}) {
      expect_weighted_matches_materialized(
          data, draws, probe, TreeOptions{.max_features = max_features},
          seed++);
    }
  }
}

TEST(WeightedBootstrap, OneRowDrawnManyTimes) {
  Rng rng(2202);
  const Dataset data = random_clusters(120, 4, 3, rng);
  const Dataset probe = random_clusters(60, 4, 3, rng);
  // Row 5 dominates every node it reaches; the rest are drawn once or not.
  auto draws = bootstrap_draws(data.size(), data.size() / 2, rng);
  draws[5] = static_cast<std::uint32_t>(data.size());
  expect_weighted_matches_materialized(data, draws, probe, TreeOptions{}, 1);
  expect_weighted_matches_materialized(
      data, draws, probe, TreeOptions{.max_depth = 3, .max_features = 2}, 2);
}

TEST(WeightedBootstrap, SingleDistinctRow) {
  Rng rng(2303);
  const Dataset data = random_clusters(50, 3, 2, rng);
  const Dataset probe = random_clusters(20, 3, 2, rng);
  std::vector<std::uint32_t> draws(data.size(), 0);
  draws[17] = static_cast<std::uint32_t>(data.size());
  expect_weighted_matches_materialized(data, draws, probe, TreeOptions{}, 1);
  DecisionTree tree(TreeOptions{}, 1);
  tree.fit_view(DatasetView(data), draws);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(probe.rows.front()), data.labels[17]);

  Dataset one;
  one.append({1.0, 2.0}, 1);
  const std::vector<std::uint32_t> once{1};
  expect_weighted_matches_materialized(one, once, one, TreeOptions{}, 1);
}

TEST(WeightedBootstrap, MostRowsNeverDrawn) {
  Rng rng(2404);
  const Dataset data = random_clusters(400, 5, 3, rng);
  const Dataset probe = random_clusters(100, 5, 3, rng);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    // About 20 distinct rows carry 400 draws.
    std::vector<std::uint32_t> draws(data.size(), 0);
    for (int i = 0; i < 20; ++i) {
      draws[static_cast<std::size_t>(rng.uniform_int(0, 399))] +=
          static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    }
    expect_weighted_matches_materialized(data, draws, probe, TreeOptions{},
                                         seed);
  }
}

TEST(WeightedBootstrap, EqualValuesOnDistinctRowsWithDifferentLabels) {
  // Every feature takes one of four values, so each equal-value run spans
  // distinct rows of several classes with different weights.
  Rng rng(2505);
  Dataset data;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(3);
    for (auto& x : row) x = static_cast<double>(rng.uniform_int(0, 3));
    data.append(std::move(row), static_cast<int>(rng.uniform_int(0, 2)));
  }
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto draws = bootstrap_draws(data.size(), data.size(), rng);
    expect_weighted_matches_materialized(data, draws, data, TreeOptions{},
                                         seed);
    expect_weighted_matches_materialized(
        data, draws, data, TreeOptions{.max_depth = 4, .max_features = 2},
        seed);
  }
}

TEST(WeightedBootstrap, MinSamplesCountsDrawsNotDistinctRows) {
  // 30 distinct rows drawn 4 to 8 times each: nodes with 25 or more draws
  // but fewer than 25 distinct rows must still split.
  Rng rng(2606);
  const Dataset data = random_clusters(200, 4, 2, rng);
  const Dataset probe = random_clusters(80, 4, 2, rng);
  std::vector<std::uint32_t> draws(data.size(), 0);
  for (std::size_t r = 0; r < 30; ++r) {
    draws[r * 6] = static_cast<std::uint32_t>(rng.uniform_int(4, 8));
  }
  const TreeOptions options{.min_samples = 25};
  expect_weighted_matches_materialized(data, draws, probe, options, 1);
  DecisionTree tree(options, 1);
  tree.fit_view(DatasetView(data), draws);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(WeightedBootstrap, RejectsMismatchedOrEmptyDraws) {
  Rng rng(2707);
  const Dataset data = random_clusters(20, 3, 2, rng);
  const DatasetView view(data);
  DecisionTree tree(TreeOptions{}, 1);
  const std::vector<std::uint32_t> short_draws(19, 1);
  EXPECT_THROW(tree.fit_view(view, short_draws), InvalidArgument);
  const std::vector<std::uint32_t> none(20, 0);
  EXPECT_THROW(tree.fit_view(view, none), InvalidArgument);
}

// --- Forest determinism ------------------------------------------------------

TEST(RandomForest, BitwiseIdenticalAcrossPoolWidths) {
  Rng rng(505);
  const Dataset train = random_clusters(400, 6, 3, rng);
  const Dataset probe = random_clusters(200, 6, 3, rng);
  const ForestOptions options{.num_trees = 12, .tree = TreeOptions{}};

  // Emulates PMIOT_THREADS in {1, 4, unset} inside one binary: fit the same
  // seeded forest under each pool width and require identical predictions.
  auto fit_and_predict = [&](par::ThreadPool* pool) {
    RandomForest forest(options, 99);
    if (pool == nullptr) {
      forest.fit(train);
      return forest.predict_all(probe);
    }
    par::ScopedPoolOverride guard(*pool);
    forest.fit(train);
    return forest.predict_all(probe);
  };

  par::ThreadPool serial(1);
  par::ThreadPool wide(4);
  const auto at_default = fit_and_predict(nullptr);
  const auto at_one = fit_and_predict(&serial);
  const auto at_four = fit_and_predict(&wide);
  EXPECT_EQ(at_default, at_one);
  EXPECT_EQ(at_default, at_four);
}

TEST(RandomForest, PresortedMatchesPerNodeSortForest) {
  Rng rng(606);
  const Dataset train = random_clusters(350, 6, 3, rng);
  const Dataset probe = random_clusters(150, 6, 3, rng);

  const ForestOptions options{.num_trees = 8, .tree = TreeOptions{}};
  RandomForest fast(options, 42);
  fast.fit(train);
  reference::SeedForest naive(options, 42);
  naive.fit(train);

  EXPECT_EQ(fast.predict_all(probe), naive.predict_all(probe));
  EXPECT_EQ(fast.predict_all(train), naive.predict_all(train));
}

/// 180 labelled windows of three features, the shape of one home's
/// occupancy training set in the campaign: a power level quantized to 10 W,
/// a rounded spread, and the hour of day (long equal-value runs).
Dataset campaign_shaped(Rng& rng) {
  Dataset data;
  for (int i = 0; i < 180; ++i) {
    const int occupied = static_cast<int>(rng.uniform_int(0, 1));
    const double level =
        std::round(rng.normal(occupied ? 420.0 : 260.0, 120.0) / 10.0) * 10.0;
    const double spread = std::round(rng.normal(occupied ? 80.0 : 55.0, 30.0));
    data.append({level, spread, static_cast<double>(i % 24)}, occupied);
  }
  return data;
}

/// FNV-1a over every node of the forest: threshold bits, feature, next.
std::uint64_t forest_hash(const RandomForest& forest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(forest.tree_count());
  for (const auto& node : forest.nodes()) {
    mix(std::bit_cast<std::uint64_t>(node.threshold));
    mix(static_cast<std::uint32_t>(node.feature));
    mix(static_cast<std::uint32_t>(node.next));
  }
  return h;
}

TEST(RandomForest, CampaignShapedForestMatchesGoldenNodeHash) {
  // The values were captured from the forest builder that grew every
  // bootstrap draw as its own sample position: weighting distinct rows by
  // their draw counts must not move a single node. The campaign's options
  // (min_samples 2) cannot tell draws from distinct rows, since a node of
  // one distinct row is pure; min_samples 10 can.
  Rng rng(2323);
  const Dataset train = campaign_shaped(rng);
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {2, 0x8a0d55e9140edb4cULL}, {10, 0xe1db31717f6f309aULL}};
  for (const auto& [min_samples, hash] : golden) {
    RandomForest forest(
        ForestOptions{.num_trees = 100, .tree = {.min_samples = min_samples}},
        7);
    forest.fit(train);
    EXPECT_EQ(forest.tree_count(), 100u);
    EXPECT_EQ(forest_hash(forest), hash) << "min_samples=" << min_samples;
  }
}

// --- Flat forest inference vs the seed forest's full vote --------------------

/// Fits the flat forest and `reference::SeedForest` from identical options
/// and seed, then requires every probe row's `predict`, and `predict_all` at
/// the default pool width and at widths 1 and 4, to equal the seed forest's
/// full-vote answer.
void expect_forest_matches_full_vote(const Dataset& train, const Dataset& probe,
                                     ForestOptions options,
                                     std::uint64_t seed) {
  RandomForest fast(options, seed);
  fast.fit(train);
  reference::SeedForest naive(options, seed);
  naive.fit(train);
  ASSERT_EQ(fast.tree_count(), static_cast<std::size_t>(options.num_trees));

  const auto expected = per_row_predictions(naive, probe);
  EXPECT_EQ(per_row_predictions(fast, probe), expected);
  EXPECT_EQ(fast.predict_all(probe), expected);
  par::ThreadPool serial(1);
  {
    par::ScopedPoolOverride guard(serial);
    EXPECT_EQ(fast.predict_all(probe), expected);
  }
  par::ThreadPool wide(4);
  {
    par::ScopedPoolOverride guard(wide);
    EXPECT_EQ(fast.predict_all(probe), expected);
  }
}

TEST(FlatForest, MatchesFullVoteAcrossRandomizedConfigs) {
  Rng rng(1101);
  std::uint64_t seed = 11;
  for (int classes : {2, 3, 5}) {
    const Dataset train = random_clusters(250, 6, classes, rng);
    const Dataset probe = random_clusters(120, 6, classes, rng);
    for (int num_trees : {1, 2, 7, 16}) {
      for (int max_depth : {2, 12}) {
        expect_forest_matches_full_vote(
            train, probe,
            ForestOptions{.num_trees = num_trees,
                          .tree = TreeOptions{.max_depth = max_depth}},
            seed++);
      }
    }
  }
}

TEST(FlatForest, MatchesFullVoteWithManyClasses) {
  // 12 classes fit the fixed vote buffer; 40 take its heap fallback.
  Rng rng(1202);
  for (int classes : {12, 40}) {
    const Dataset train = random_clusters(400, 5, classes, rng);
    const Dataset probe = random_clusters(150, 5, classes, rng);
    expect_forest_matches_full_vote(
        train, probe, ForestOptions{.num_trees = 10, .tree = {}}, 5);
  }
}

TEST(FlatForest, EvenSplitVoteGoesToLowestClass) {
  // Two overlapping classes and an even tree count: many rows split the
  // vote exactly in half, where the full vote's first maximum is class 0.
  Rng rng(1303);
  Dataset train;
  Dataset probe;
  for (int i = 0; i < 300; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, 1));
    train.append({rng.normal(0.3 * label, 1.0), rng.normal(0.0, 1.0)}, label);
  }
  for (int i = 0; i < 300; ++i) {
    probe.append({rng.normal(0.15, 1.0), rng.normal(0.0, 1.0)}, 0);
  }
  for (int num_trees : {2, 4, 10}) {
    const ForestOptions options{.num_trees = num_trees, .tree = {}};
    RandomForest fast(options, 21);
    fast.fit(train);
    reference::SeedForest naive(options, 21);
    naive.fit(train);
    std::size_t ties = 0;
    for (const auto& row : probe.rows) {
      const auto votes = naive.votes(row);
      ASSERT_EQ(votes.size(), 2u);
      if (votes[0] != votes[1]) continue;
      ++ties;
      EXPECT_EQ(fast.predict(row), 0);
    }
    EXPECT_GT(ties, 0u) << "trees=" << num_trees;
    expect_forest_matches_full_vote(train, probe, options, 21);
  }
}

TEST(FlatForest, SingleLeafTreesFromSingleClassBootstraps) {
  // Two training rows: about half of all bootstraps draw one row twice and
  // grow a single-leaf tree; the rest grow a one-split stump.
  Dataset pair;
  pair.append({0.0, 1.0}, 0);
  pair.append({1.0, 0.0}, 1);
  Dataset probe;
  for (double x : {-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0}) {
    probe.append({x, 1.0 - x}, 0);
  }
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    expect_forest_matches_full_vote(
        pair, probe, ForestOptions{.num_trees = 9, .tree = {}}, seed);
  }

  // One class only: every tree is a single leaf of class 2.
  Rng rng(1404);
  Dataset pure = random_clusters(50, 3, 3, rng);
  for (auto& label : pure.labels) label = 2;
  const Dataset pure_probe = random_clusters(20, 3, 3, rng);
  expect_forest_matches_full_vote(pure, pure_probe,
                                  ForestOptions{.num_trees = 6, .tree = {}}, 9);
}

TEST(FlatForest, NaNFeaturesGoRight) {
  Rng rng(1505);
  const Dataset train = random_clusters(300, 4, 3, rng);
  Dataset probe = random_clusters(80, 4, 3, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe.rows[i][i % 4] = nan;
    if (i % 5 == 0) probe.rows[i][(i + 1) % 4] = nan;
  }
  probe.append({nan, nan, nan, nan}, 0);
  expect_forest_matches_full_vote(
      train, probe, ForestOptions{.num_trees = 12, .tree = {}}, 3);
}

TEST(FlatForest, RejectsRowsNarrowerThanTheFittedWidth) {
  Rng rng(1606);
  const Dataset train = random_clusters(120, 4, 2, rng);
  RandomForest forest(ForestOptions{.num_trees = 5, .tree = {}}, 1);
  forest.fit(train);
  DecisionTree tree(TreeOptions{}, 1);
  tree.fit(train);
  const std::vector<double> narrow{0.0, 0.0, 0.0};
  EXPECT_THROW(forest.predict(narrow), InvalidArgument);
  EXPECT_THROW(tree.predict(narrow), InvalidArgument);
  Dataset narrow_rows;
  narrow_rows.append(narrow, 0);
  EXPECT_THROW(forest.predict_all(narrow_rows), InvalidArgument);
  EXPECT_EQ(forest.tree_count(), 5u);
  // Wider rows are fine: the trees only read the fitted features.
  const std::vector<double> wide{0.0, 0.0, 0.0, 0.0, 7.0};
  const std::vector<double> fitted_width{0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(forest.predict(wide), forest.predict(fitted_width));
}

TEST(FlatForest, CountsRowsAndTreesWalkedOncePerCall) {
  Rng rng(1707);
  const Dataset train = random_clusters(200, 4, 3, rng);
  const Dataset probe = random_clusters(90, 4, 3, rng);
  const int num_trees = 9;
  RandomForest forest(ForestOptions{.num_trees = num_trees, .tree = {}}, 4);
  forest.fit(train);

  auto& registry = obs::MetricsRegistry::instance();
  auto& rows = registry.counter("ml.forest.rows_predicted");
  auto& walked = registry.counter("ml.forest.trees_walked");
  registry.reset_values_for_testing();
  obs::set_enabled_for_testing(true);
  forest.predict_all(probe);
  const std::uint64_t batch_rows = rows.value();
  const std::uint64_t batch_walked = walked.value();
  for (const auto& row : probe.rows) forest.predict(row);
  const std::uint64_t single_walked = walked.value() - batch_walked;
  const std::uint64_t single_rows = rows.value() - batch_rows;
  obs::set_enabled_for_testing(false);
  registry.reset_values_for_testing();

  const auto n = static_cast<std::uint64_t>(probe.size());
  EXPECT_EQ(batch_rows, n);
  EXPECT_EQ(single_rows, n);
  EXPECT_EQ(single_walked, batch_walked);
  // Every row walks at least a strict majority and at most all trees.
  EXPECT_GE(batch_walked, n * static_cast<std::uint64_t>(num_trees / 2 + 1));
  EXPECT_LE(batch_walked, n * static_cast<std::uint64_t>(num_trees));
}

// --- Tree-major batch traversal ----------------------------------------------

/// Label and number of trees walked for one row, read row by row off the
/// forest's flat node array: tree t + 1 starts where tree t's pre-order
/// ends, and the row stops at the first strict majority of all trees.
struct RowVote {
  int label = 0;
  std::size_t walked = 0;
};

RowVote row_at_a_time(const RandomForest& forest, std::span<const double> row,
                      int classes) {
  const auto nodes = forest.nodes();
  const std::size_t trees = forest.tree_count();
  std::vector<int> votes(static_cast<std::size_t>(classes), 0);
  std::size_t root = 0;
  for (std::size_t t = 0; t < trees; ++t) {
    const int c = DecisionTree::walk(nodes.data(), root, row.data());
    if (2 * static_cast<std::size_t>(++votes[static_cast<std::size_t>(c)]) >
        trees) {
      return {c, t + 1};
    }
    for (std::size_t open = 1; open > 0; ++root) {
      open = nodes[root].feature >= 0 ? open + 1 : open - 1;
    }
  }
  return {static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                           votes.begin()),
          trees};
}

/// Sets about half of `probe`'s feature values to a split threshold of the
/// forest on that feature, where `<=` and `<` part ways.
void snap_to_thresholds(const RandomForest& forest, Dataset& probe, Rng& rng) {
  if (probe.size() == 0) return;
  std::vector<std::vector<double>> thresholds(probe.width());
  for (const auto& node : forest.nodes()) {
    if (node.feature >= 0) {
      thresholds[static_cast<std::size_t>(node.feature)].push_back(
          node.threshold);
    }
  }
  for (auto& row : probe.rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      const auto& on_f = thresholds[f];
      if (on_f.empty() || rng.uniform() < 0.5) continue;
      row[f] = on_f[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(on_f.size()) - 1))];
    }
  }
}

/// `data` feature-major, the layout `predict_columns` reads.
std::vector<double> columns_of(const Dataset& data) {
  const std::size_t n = data.size();
  std::vector<double> columns(n * data.width());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < data.width(); ++f) {
      columns[f * n + i] = data.rows[i][f];
    }
  }
  return columns;
}

/// The `ml.forest.trees_walked` that `call` adds.
template <typename Call>
std::uint64_t trees_walked_by(const Call& call) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& walked = registry.counter("ml.forest.trees_walked");
  registry.reset_values_for_testing();
  obs::set_enabled_for_testing(true);
  call();
  const std::uint64_t value = walked.value();
  obs::set_enabled_for_testing(false);
  registry.reset_values_for_testing();
  return value;
}

/// Requires `predict_all`, `predict_columns` and per-row `predict` to give
/// `expected` labels and to walk `expected_walked` trees in all, at pool
/// widths 1 and 4.
void expect_batches_match(const RandomForest& forest, const Dataset& probe,
                          const std::vector<int>& expected,
                          std::uint64_t expected_walked) {
  const auto columns = columns_of(probe);
  for (std::size_t width : {1u, 4u}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride guard(pool);
    std::vector<int> batch, column_batch, single;
    EXPECT_EQ(trees_walked_by([&] { batch = forest.predict_all(probe); }),
              expected_walked)
        << "width " << width;
    EXPECT_EQ(trees_walked_by([&] {
                column_batch = forest.predict_columns(columns, probe.size());
              }),
              expected_walked)
        << "width " << width;
    EXPECT_EQ(trees_walked_by([&] { single = per_row_predictions(forest, probe); }),
              expected_walked)
        << "width " << width;
    EXPECT_EQ(batch, expected) << "width " << width;
    EXPECT_EQ(column_batch, expected) << "width " << width;
    EXPECT_EQ(single, expected) << "width " << width;
  }
}

TEST(FlatForest, BatchSizesAroundTheBlock) {
  Rng rng(1808);
  const Dataset train = random_clusters(300, 5, 4, rng);
  const ForestOptions options{.num_trees = 15, .tree = {}};
  RandomForest forest(options, 8);
  forest.fit(train);
  reference::SeedForest naive(options, 8);
  naive.fit(train);
  constexpr std::size_t block = RandomForest::kBlockRows;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, block - 1, block,
                        block + 1, 2 * block + 5}) {
    Dataset probe = random_clusters(n, 5, 4, rng);
    snap_to_thresholds(forest, probe, rng);
    std::uint64_t walked = 0;
    for (const auto& row : probe.rows) {
      walked += row_at_a_time(forest, row, 4).walked;
    }
    SCOPED_TRACE(n);
    expect_batches_match(forest, probe, per_row_predictions(naive, probe),
                         walked);
  }
}

TEST(FlatForest, CampaignShapedBatchesMatchSeedForest) {
  // The campaign's occupancy attacker: 100 trees over three features,
  // predicting one cell's 180 waking-hours windows per call.
  Rng rng(1909);
  const Dataset train = campaign_shaped(rng);
  const ForestOptions options{.num_trees = 100, .tree = {}};
  RandomForest forest(options, 7);
  forest.fit(train);
  reference::SeedForest naive(options, 7);
  naive.fit(train);
  for (int cell = 0; cell < 4; ++cell) {
    const Dataset probe = campaign_shaped(rng);
    std::uint64_t walked = 0;
    for (const auto& row : probe.rows) {
      const auto vote = row_at_a_time(forest, row, 2);
      EXPECT_EQ(vote.label, naive.predict(row));
      walked += vote.walked;
    }
    SCOPED_TRACE(cell);
    expect_batches_match(forest, probe, per_row_predictions(naive, probe),
                         walked);
  }
}

TEST(FlatForest, MajorityAtTheEarliestTree) {
  // Rows whose first floor(T/2) + 1 trees all agree leave the batch at
  // exactly that tree; the rest of the batch walks on past them.
  Rng rng(2020);
  const Dataset train = random_clusters(300, 4, 2, rng);
  for (int num_trees : {9, 10}) {
    const ForestOptions options{.num_trees = num_trees, .tree = {}};
    RandomForest forest(options, 12);
    forest.fit(train);
    Dataset pool = random_clusters(400, 4, 2, rng);
    snap_to_thresholds(forest, pool, rng);
    reference::SeedForest naive(options, 12);
    naive.fit(train);
    const auto earliest = static_cast<std::size_t>(num_trees / 2 + 1);
    Dataset early;
    Dataset mixed;
    std::uint64_t mixed_walked = 0;
    for (const auto& row : pool.rows) {
      const auto vote = row_at_a_time(forest, row, 2);
      if (vote.walked == earliest) early.append(row, 0);
      if (vote.walked == earliest || vote.walked == forest.tree_count()) {
        mixed.append(row, 0);
        mixed_walked += vote.walked;
      }
    }
    ASSERT_GT(early.size(), 0u) << "trees=" << num_trees;
    ASSERT_GT(mixed.size(), early.size()) << "trees=" << num_trees;
    SCOPED_TRACE(num_trees);
    expect_batches_match(forest, early, per_row_predictions(naive, early),
                         early.size() * earliest);
    expect_batches_match(forest, mixed, per_row_predictions(naive, mixed),
                         mixed_walked);
  }
}

// --- Batch prediction identity -----------------------------------------------

TEST(Classifier, PredictAllMatchesPerRowAtEveryPoolWidth) {
  Rng rng(707);
  const Dataset train = random_clusters(300, 5, 4, rng);
  const Dataset probe = random_clusters(120, 5, 4, rng);

  DecisionTree tree(TreeOptions{}, 3);
  tree.fit(train);
  RandomForest forest(ForestOptions{.num_trees = 6, .tree = TreeOptions{}}, 3);
  forest.fit(train);

  for (const Classifier* model :
       {static_cast<const Classifier*>(&tree),
        static_cast<const Classifier*>(&forest)}) {
    const auto expected = per_row_predictions(*model, probe);
    EXPECT_EQ(model->predict_all(probe), expected);
    par::ThreadPool serial(1);
    {
      par::ScopedPoolOverride guard(serial);
      EXPECT_EQ(model->predict_all(probe), expected);
    }
    par::ThreadPool wide(4);
    {
      par::ScopedPoolOverride guard(wide);
      EXPECT_EQ(model->predict_all(probe), expected);
    }
  }
}

// --- kNN tie-breaking --------------------------------------------------------

TEST(Knn, EqualDistanceNeighboursOrderedByTrainingRow) {
  // Three exact copies of the same point with conflicting labels: every
  // distance ties, so the neighbour set is decided purely by row order.
  Dataset train;
  train.append({0.0, 0.0}, 0);  // row 0
  train.append({0.0, 0.0}, 1);  // row 1
  train.append({0.0, 0.0}, 1);  // row 2
  train.append({5.0, 5.0}, 1);

  const std::vector<double> query{0.0, 0.0};

  KnnClassifier k1(1);
  k1.fit(train);
  EXPECT_EQ(k1.predict(query), 0);  // row 0 wins the tie

  KnnClassifier k2(2);
  k2.fit(train);
  // Rows 0 and 1: one vote each, class tie broken by the nearest
  // neighbour, which is row 0.
  EXPECT_EQ(k2.predict(query), 0);

  KnnClassifier k3(3);
  k3.fit(train);
  EXPECT_EQ(k3.predict(query), 1);  // rows 0,1,2 vote 0,1,1

  Dataset probe;
  probe.append(query, 0);
  EXPECT_EQ(k1.predict_all(probe), std::vector<int>{0});
  EXPECT_EQ(k2.predict_all(probe), std::vector<int>{0});
  EXPECT_EQ(k3.predict_all(probe), std::vector<int>{1});
}

/// Exact kNN: subtract-kernel distances, a full sort by (dist², row), and a
/// majority vote whose class ties go to the nearest neighbour's class.
std::vector<int> full_sort_knn(const Dataset& train, int k,
                               const Dataset& probe) {
  std::vector<int> out;
  for (const auto& query : probe.rows) {
    std::vector<std::pair<double, std::size_t>> all;
    for (std::size_t i = 0; i < train.size(); ++i) {
      double d2 = 0.0;
      for (std::size_t c = 0; c < query.size(); ++c) {
        const double d = query[c] - train.rows[i][c];
        d2 += d * d;
      }
      all.emplace_back(d2, i);
    }
    std::sort(all.begin(), all.end());
    const auto kk =
        std::min<std::size_t>(static_cast<std::size_t>(k), all.size());
    std::vector<int> votes(static_cast<std::size_t>(train.num_classes()), 0);
    for (std::size_t i = 0; i < kk; ++i) {
      ++votes[static_cast<std::size_t>(train.labels[all[i].second])];
    }
    int best = train.labels[all[0].second];
    for (std::size_t c = 0; c < votes.size(); ++c) {
      if (votes[c] > votes[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(c);
      }
    }
    out.push_back(best);
  }
  return out;
}

TEST(Knn, BatchMatchesPerRowWithDuplicatedTrainingPoints) {
  Rng rng(808);
  Dataset train = random_clusters(150, 4, 3, rng);
  // Duplicate every point with a rotated label so equal-distance ties at
  // the k-boundary are common and label-relevant.
  const std::size_t original = train.size();
  for (std::size_t i = 0; i < original; ++i) {
    train.append(train.rows[i], (train.labels[i] + 1) % 3);
  }
  Dataset probe = random_clusters(60, 4, 3, rng);
  // Also query exactly on training points.
  for (std::size_t i = 0; i < 40; ++i) {
    probe.append(train.rows[i * 3], 0);
  }

  for (int k : {1, 2, 5}) {
    KnnClassifier knn(k);
    knn.fit(train);
    const std::vector<int> batch = knn.predict_all(probe);
    EXPECT_EQ(batch, per_row_predictions(knn, probe)) << "k=" << k;
    // Per-row and batch share one distance kernel, so only an exact
    // reference catches a fault in it.
    EXPECT_EQ(batch, full_sort_knn(train, k, probe)) << "k=" << k;
  }
}

// --- kmeans 1-D fast path ----------------------------------------------------

TEST(KMeans, OneDFastPathMatchesGeneralKernel) {
  Rng data_rng(909);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(data_rng.normal(0.0, 1.0));
  for (int i = 0; i < 100; ++i) xs.push_back(data_rng.normal(6.0, 0.5));
  for (int i = 0; i < 50; ++i) xs.push_back(3.0);  // duplicates

  std::vector<std::vector<double>> rows;
  rows.reserve(xs.size());
  for (double x : xs) rows.push_back({x});

  for (int k : {1, 2, 3, 5}) {
    Rng rng_full(1234);
    Rng rng_fast(1234);
    const KMeansResult full = reference::kmeans(rows, k, rng_full);
    const KMeansResult fast = kmeans1d(xs, k, rng_fast);
    EXPECT_EQ(fast.centroids, full.centroids) << "k=" << k;
    EXPECT_EQ(fast.assignment, full.assignment) << "k=" << k;
    EXPECT_EQ(fast.inertia, full.inertia) << "k=" << k;
    EXPECT_EQ(fast.iterations, full.iterations) << "k=" << k;
  }
}

}  // namespace
}  // namespace pmiot::ml
