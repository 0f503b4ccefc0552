// k-nearest-neighbours classifier (Euclidean), brute-force search over a
// flat row-major copy of the training set.
//
// Used as one of the fingerprinting models in the §IV evaluation and by the
// supervised NIOM detector. `fit` precomputes per-row squared norms so each
// query costs one dot product per training row (dist² = ‖q‖² + ‖t‖² − 2q·t);
// `predict_all` runs a blocked batch kernel (query tiles × training tiles)
// fanned out over `pmiot::par`. Neighbours at exactly equal distance are
// ordered by training-row index, so votes at the k-boundary are
// deterministic even with duplicated training points.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace pmiot::ml {

class KnnClassifier final : public Classifier {
 public:
  /// k >= 1 neighbours, majority vote, ties broken by nearest neighbour.
  explicit KnnClassifier(int k = 5);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  /// Batch prediction: bitwise identical to per-row `predict`, but tiles
  /// the distance kernel so a block of training rows is reused across a
  /// block of queries, and parallelizes over query tiles.
  std::vector<int> predict_all(const Dataset& data) const override;
  std::string name() const override;

 private:
  struct Neighbour;

  /// Folds training rows [begin, end) into `heap`, a worst-on-top bounded
  /// heap of the k best (dist², row) pairs seen so far. Shared by `predict`
  /// and the batch kernel so both compute identical results.
  void fold_tile(const double* query, double query_norm2, std::size_t begin,
                 std::size_t end, std::size_t cap,
                 std::vector<Neighbour>& heap) const;

  /// Majority vote over `nearest` (ascending (dist², row) order), ties
  /// between classes broken in favour of the nearest neighbour's class.
  int vote(std::vector<Neighbour>& nearest) const;

  int k_;
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  int num_classes_ = 0;
  std::vector<double> train_;  // row-major, n_ * d_
  std::vector<double> norm2_;  // per-row squared norm
  std::vector<int> labels_;
};

}  // namespace pmiot::ml
