// 1-D k-means clustering (k-means++ init, Lloyd iterations).
//
// Seeds the Gaussian HMM's states (`GaussianHmm::init_from_data`, behind
// the HMM NIOM detector) and discovers appliance power levels in the FHMM
// trainer. The general multi-dimensional algorithm it is held to bit for
// bit is `reference::kmeans`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace pmiot::ml {

struct KMeansResult {
  std::vector<std::vector<double>> centroids;  // [cluster][feature]
  std::vector<int> assignment;                 // [row] -> cluster id
  double inertia = 0.0;  ///< sum of squared distances to assigned centroid
  int iterations = 0;
};

/// Clusters `xs` (non-empty) into k >= 1 groups. If k exceeds the number of
/// distinct values, k-means++ seeding stops early (duplicates collapse), so
/// fewer centroids may come back; `assignment` is always valid.
KMeansResult kmeans1d(std::span<const double> xs, int k, Rng& rng,
                      int max_iterations = 100);

}  // namespace pmiot::ml
