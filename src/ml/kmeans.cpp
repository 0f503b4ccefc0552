#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace pmiot::ml {
namespace {

// Squared distance of two points. (a-b)² is bitwise identical to the
// width-1 sum in `reference::kmeans`: d*d is never -0.0, so its 0.0 + d*d
// accumulation is exact.
double dist2_1d(double a, double b) {
  const double d = a - b;
  return d * d;
}

}  // namespace

// The general algorithm of `reference::kmeans` statement for statement
// (same RNG draws, same floating-point operation order), but points and
// centroids live in flat double vectors instead of a vector of single-element
// rows. Results are bitwise identical to `reference::kmeans` on singleton
// rows.
KMeansResult kmeans1d(std::span<const double> xs, int k, Rng& rng,
                      int max_iterations) {
  PMIOT_CHECK(!xs.empty(), "kmeans needs data");
  PMIOT_CHECK(k >= 1, "k must be at least 1");
  PMIOT_CHECK(max_iterations >= 1, "max_iterations must be at least 1");
  const auto kk = std::min<std::size_t>(static_cast<std::size_t>(k), xs.size());

  // k-means++ seeding.
  std::vector<double> centroids;
  centroids.push_back(xs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))]);
  std::vector<double> min_d2(xs.size(), std::numeric_limits<double>::max());
  while (centroids.size() < kk) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      min_d2[i] = std::min(min_d2[i], dist2_1d(xs[i], centroids.back()));
    }
    double total = 0.0;
    for (double d : min_d2) total += d;
    if (total <= 0.0) break;  // all points coincide with centroids
    double draw = rng.uniform() * total;
    std::size_t chosen = xs.size() - 1;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      draw -= min_d2[i];
      if (draw <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(xs[chosen]);
  }

  KMeansResult result;
  result.assignment.assign(xs.size(), 0);
  const std::size_t nc = centroids.size();
  std::vector<double> sums(nc);
  std::vector<std::size_t> counts(nc);
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    // Assign.
    for (std::size_t i = 0; i < xs.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < nc; ++c) {
        const double d = dist2_1d(xs[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      sums[c] += xs[i];
    }
    for (std::size_t c = 0; c < nc; ++c) {
      if (counts[c] == 0) continue;  // keep old centroid for empty cluster
      centroids[c] = sums[c] / static_cast<double>(counts[c]);
    }
    if (!changed) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    result.inertia += dist2_1d(
        xs[i], centroids[static_cast<std::size_t>(result.assignment[i])]);
  }
  result.centroids.reserve(nc);
  for (double c : centroids) result.centroids.push_back({c});
  return result;
}

}  // namespace pmiot::ml
