// Unit tests for pmiot_ml's classical models: datasets, k-NN, naive Bayes,
// decision trees, random forests, logistic regression, k-means, metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "reference/kmeans.h"

namespace pmiot::ml {
namespace {

/// Two well-separated Gaussian blobs, labels 0/1.
Dataset two_blobs(int per_class, Rng& rng) {
  Dataset data;
  for (int i = 0; i < per_class; ++i) {
    data.append({rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)}, 0);
    data.append({rng.normal(4.0, 0.5), rng.normal(4.0, 0.5)}, 1);
  }
  return data;
}

/// XOR pattern: not linearly separable (trees must solve it; logistic
/// regression cannot).
Dataset xor_data(int per_corner, Rng& rng) {
  Dataset data;
  for (int i = 0; i < per_corner; ++i) {
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        data.append({a + rng.normal(0.0, 0.05), b + rng.normal(0.0, 0.05)},
                    a ^ b);
      }
    }
  }
  return data;
}

double accuracy(const Classifier& model, const Dataset& test) {
  const auto pred = model.predict_all(test);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    correct += pred[i] == test.labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

// --- Dataset ------------------------------------------------------------------

TEST(Dataset, ValidateCatchesRaggedRows) {
  Dataset data;
  data.rows = {{1.0, 2.0}, {1.0}};
  data.labels = {0, 1};
  EXPECT_THROW(data.validate(), InvalidArgument);
}

TEST(Dataset, ValidateCatchesNegativeLabels) {
  Dataset data;
  data.rows = {{1.0}};
  data.labels = {-1};
  EXPECT_THROW(data.validate(), InvalidArgument);
}

TEST(Dataset, AppendEnforcesWidth) {
  Dataset data;
  data.append({1.0, 2.0}, 0);
  EXPECT_THROW(data.append({1.0}, 0), InvalidArgument);
  EXPECT_EQ(data.width(), 2u);
}

TEST(Dataset, NumClasses) {
  Dataset data;
  data.append({0.0}, 0);
  data.append({1.0}, 4);
  EXPECT_EQ(data.num_classes(), 5);
}

TEST(Dataset, TrainTestSplitPartitions) {
  Rng rng(1);
  auto data = two_blobs(50, rng);
  const auto split = train_test_split(data, 0.3, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), data.size());
  EXPECT_NEAR(static_cast<double>(split.test.size()) /
                  static_cast<double>(data.size()),
              0.3, 0.02);
  EXPECT_THROW(train_test_split(data, 0.0, rng), InvalidArgument);
  EXPECT_THROW(train_test_split(data, 1.0, rng), InvalidArgument);
}

TEST(Dataset, TakeSelectsRows) {
  Dataset data;
  data.append({1.0}, 0);
  data.append({2.0}, 1);
  data.append({3.0}, 0);
  const std::vector<std::size_t> idx{2, 0};
  const auto sub = take(data, idx);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.rows[0][0], 3.0);
  EXPECT_EQ(sub.labels[1], 0);
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  Rng rng(3);
  auto data = two_blobs(100, rng);
  StandardScaler scaler;
  scaler.fit(data);
  scaler.transform_in_place(data);
  // Column means ~0, variances ~1 after scaling.
  double mean0 = 0.0;
  for (const auto& row : data.rows) mean0 += row[0];
  mean0 /= static_cast<double>(data.size());
  EXPECT_NEAR(mean0, 0.0, 1e-9);
}

TEST(StandardScaler, RequiresFit) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), InvalidArgument);
}

// --- Classifiers ----------------------------------------------------------------

TEST(Knn, SeparatesBlobs) {
  Rng rng(5);
  auto split = train_test_split(two_blobs(100, rng), 0.3, rng);
  KnnClassifier knn(5);
  knn.fit(split.train);
  EXPECT_GT(accuracy(knn, split.test), 0.97);
}

TEST(Knn, KOneMemorizesTraining) {
  Rng rng(5);
  auto data = two_blobs(20, rng);
  KnnClassifier knn(1);
  knn.fit(data);
  EXPECT_DOUBLE_EQ(accuracy(knn, data), 1.0);
}

TEST(Knn, RejectsInvalidConstruction) {
  EXPECT_THROW(KnnClassifier(0), InvalidArgument);
  KnnClassifier knn(3);
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), InvalidArgument);
}

TEST(NaiveBayes, SeparatesBlobs) {
  Rng rng(7);
  auto split = train_test_split(two_blobs(100, rng), 0.3, rng);
  GaussianNaiveBayes nb;
  nb.fit(split.train);
  EXPECT_GT(accuracy(nb, split.test), 0.97);
}

TEST(NaiveBayes, LogJointOrdersClasses) {
  Rng rng(7);
  auto data = two_blobs(50, rng);
  GaussianNaiveBayes nb;
  nb.fit(data);
  const auto lj0 = nb.log_joint(std::vector<double>{0.0, 0.0});
  EXPECT_GT(lj0[0], lj0[1]);
  const auto lj1 = nb.log_joint(std::vector<double>{4.0, 4.0});
  EXPECT_GT(lj1[1], lj1[0]);
}

TEST(DecisionTree, SolvesXor) {
  Rng rng(9);
  auto split = train_test_split(xor_data(50, rng), 0.25, rng);
  DecisionTree tree;
  tree.fit(split.train);
  EXPECT_GT(accuracy(tree, split.test), 0.88);
}

TEST(DecisionTree, DepthLimitIsRespected) {
  Rng rng(9);
  auto data = xor_data(40, rng);
  TreeOptions options;
  options.max_depth = 1;
  DecisionTree stump(options);
  stump.fit(data);
  EXPECT_LE(stump.depth(), 1);
  // A depth-1 stump cannot solve XOR.
  EXPECT_LT(accuracy(stump, data), 0.8);
}

TEST(DecisionTree, PureNodeStopsEarly) {
  Dataset data;
  for (int i = 0; i < 10; ++i) data.append({static_cast<double>(i)}, 0);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(RandomForest, SolvesXorRobustly) {
  Rng rng(11);
  auto split = train_test_split(xor_data(60, rng), 0.25, rng);
  RandomForest forest;
  forest.fit(split.train);
  EXPECT_EQ(forest.tree_count(), 25u);
  EXPECT_GT(accuracy(forest, split.test), 0.95);
}

TEST(Logistic, SeparatesLinearBlobs) {
  Rng rng(13);
  auto split = train_test_split(two_blobs(80, rng), 0.25, rng);
  LogisticRegression lr;
  lr.fit(split.train);
  EXPECT_GT(accuracy(lr, split.test), 0.95);
}

TEST(Logistic, ProbabilitiesSumToOne) {
  Rng rng(13);
  auto data = two_blobs(30, rng);
  LogisticRegression lr;
  lr.fit(data);
  const auto p = lr.predict_proba(std::vector<double>{1.0, 2.0});
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Logistic, CannotSolveXor) {
  Rng rng(13);
  auto data = xor_data(60, rng);
  LogisticRegression lr;
  lr.fit(data);
  EXPECT_LT(accuracy(lr, data), 0.75);  // linear model, nonlinear problem
}

TEST(Classifiers, ThrowWhenUnfitted) {
  const std::vector<double> row{1.0, 2.0};
  EXPECT_THROW(KnnClassifier().predict(row), InvalidArgument);
  EXPECT_THROW(GaussianNaiveBayes().predict(row), InvalidArgument);
  EXPECT_THROW(DecisionTree().predict(row), InvalidArgument);
  EXPECT_THROW(RandomForest().predict(row), InvalidArgument);
  EXPECT_THROW(LogisticRegression().predict(row), InvalidArgument);
}

// --- k-means --------------------------------------------------------------------

TEST(KMeans, FindsTwoLevels1d) {
  Rng rng(15);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(rng.normal(0.0, 0.05));
    xs.push_back(rng.normal(5.0, 0.05));
  }
  const auto result = kmeans1d(xs, 2, rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  const double lo = std::min(result.centroids[0][0], result.centroids[1][0]);
  const double hi = std::max(result.centroids[0][0], result.centroids[1][0]);
  EXPECT_NEAR(lo, 0.0, 0.1);
  EXPECT_NEAR(hi, 5.0, 0.1);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(15);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(0.0, 10.0));
  Rng r1(1), r2(1);
  const auto k2 = kmeans1d(xs, 2, r1);
  const auto k5 = kmeans1d(xs, 5, r2);
  EXPECT_LT(k5.inertia, k2.inertia);
}

TEST(KMeans, AssignmentsAreValid) {
  Rng rng(15);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({rng.uniform(), rng.uniform()});
  const auto result = reference::kmeans(rows, 4, rng);
  for (int a : result.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, static_cast<int>(result.centroids.size()));
  }
}

TEST(KMeans, RejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(reference::kmeans({}, 2, rng), InvalidArgument);
  EXPECT_THROW(reference::kmeans({{1.0}}, 0, rng), InvalidArgument);
}

// --- multiclass metrics -----------------------------------------------------------

TEST(ConfusionMatrix, CountsAndAccuracy) {
  const std::vector<int> pred{0, 1, 2, 1, 0};
  const std::vector<int> actual{0, 1, 1, 1, 2};
  ConfusionMatrix cm(pred, actual, 3);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(1, 2), 1u);
  EXPECT_EQ(cm.count(2, 0), 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.6);
}

TEST(ConfusionMatrix, PerClassPrecisionRecall) {
  const std::vector<int> pred{0, 0, 1, 1};
  const std::vector<int> actual{0, 1, 1, 1};
  ConfusionMatrix cm(pred, actual, 2);
  EXPECT_DOUBLE_EQ(cm.precision(0), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(0), 1.0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 1.0);
  EXPECT_NEAR(cm.recall(1), 2.0 / 3.0, 1e-12);
  EXPECT_GT(cm.macro_f1(), 0.0);
}

TEST(ConfusionMatrix, RejectsOutOfRangeLabels) {
  const std::vector<int> pred{0, 3};
  const std::vector<int> actual{0, 1};
  EXPECT_THROW(ConfusionMatrix(pred, actual, 2), InvalidArgument);
}

TEST(ConfusionMatrix, ToStringContainsNames) {
  const std::vector<int> pred{0, 1};
  const std::vector<int> actual{0, 1};
  ConfusionMatrix cm(pred, actual, 2);
  const auto text = cm.to_string({"cat", "dog"});
  EXPECT_NE(text.find("cat"), std::string::npos);
  EXPECT_NE(text.find("dog"), std::string::npos);
}

TEST(ConfusionMatrix, MccHandComputedThreeClass) {
  // trace c = 4, s = 6, row sums t = {2,2,2}, column sums p = {2,2,2}:
  // R_K = (4*6 - 12) / sqrt((36-12)(36-12)) = 12/24 = 0.5.
  const std::vector<int> pred{0, 1, 2, 0, 1, 2};
  const std::vector<int> actual{0, 1, 2, 0, 2, 1};
  ConfusionMatrix cm(pred, actual, 3);
  EXPECT_DOUBLE_EQ(cm.mcc(), 0.5);
}

TEST(ConfusionMatrix, MccBoundsAndDegenerateCases) {
  const std::vector<int> perfect{0, 1, 2, 0};
  EXPECT_DOUBLE_EQ(ConfusionMatrix(perfect, perfect, 3).mcc(), 1.0);
  // Anti-correlated binary labels.
  const std::vector<int> pred{1, 0, 1, 0};
  const std::vector<int> actual{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(ConfusionMatrix(pred, actual, 2).mcc(), -1.0);
  // Degenerate marginals (one predicted class / one actual class) are
  // chance level by convention, matching the binary rule.
  const std::vector<int> constant{1, 1, 1, 1};
  const std::vector<int> mixed{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(ConfusionMatrix(constant, mixed, 2).mcc(), 0.0);
  EXPECT_DOUBLE_EQ(ConfusionMatrix(mixed, constant, 2).mcc(), 0.0);
}

TEST(ConfusionMatrix, MccReducesToBinaryMcc) {
  const std::vector<int> pred{1, 0, 1, 1, 0, 1, 0, 0, 1, 1};
  const std::vector<int> actual{1, 0, 0, 1, 0, 1, 1, 0, 0, 1};
  ConfusionMatrix cm(pred, actual, 2);
  const auto binary = stats::confusion(pred, actual);
  EXPECT_DOUBLE_EQ(cm.mcc(), binary.mcc());
}

// --- parameterized sweeps -----------------------------------------------------------

class ForestSizes : public ::testing::TestWithParam<int> {};

TEST_P(ForestSizes, AccuracyHoldsAcrossSizes) {
  Rng rng(21);
  auto split = train_test_split(two_blobs(60, rng), 0.3, rng);
  ForestOptions options;
  options.num_trees = GetParam();
  RandomForest forest(options);
  forest.fit(split.train);
  EXPECT_GT(accuracy(forest, split.test), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizes, ::testing::Values(1, 5, 15, 40));

class KnnNeighbours : public ::testing::TestWithParam<int> {};

TEST_P(KnnNeighbours, BlobsStaySeparable) {
  Rng rng(22);
  auto split = train_test_split(two_blobs(60, rng), 0.3, rng);
  KnnClassifier knn(GetParam());
  knn.fit(split.train);
  EXPECT_GT(accuracy(knn, split.test), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnNeighbours, ::testing::Values(1, 3, 7, 15));

}  // namespace
}  // namespace pmiot::ml
