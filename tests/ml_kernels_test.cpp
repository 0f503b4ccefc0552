// Tests for the columnar ML training kernels: randomized presorted-vs-naive
// tree equivalence (including degenerate corners), forest determinism across
// pool widths, batch-vs-per-row prediction identity, kNN tie-breaking with
// duplicated training points, and the kmeans 1-D fast path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "reference/decision_tree.h"

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
    EXPECT_EQ(knn.predict_all(probe), per_row_predictions(knn, probe));
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
    const KMeansResult full = kmeans(rows, k, rng_full);
    const KMeansResult fast = kmeans1d(xs, k, rng_fast);
    EXPECT_EQ(fast.centroids, full.centroids) << "k=" << k;
    EXPECT_EQ(fast.assignment, full.assignment) << "k=" << k;
    EXPECT_EQ(fast.inertia, full.inertia) << "k=" << k;
    EXPECT_EQ(fast.iterations, full.iterations) << "k=" << k;
  }
}

}  // namespace
}  // namespace pmiot::ml
