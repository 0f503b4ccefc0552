#include "reference/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "common/error.h"

namespace pmiot::reference {
namespace {

double dist2(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace

ml::KMeansResult kmeans(const std::vector<std::vector<double>>& rows, int k,
                        Rng& rng, int max_iterations) {
  PMIOT_CHECK(!rows.empty(), "kmeans needs data");
  PMIOT_CHECK(k >= 1, "k must be at least 1");
  PMIOT_CHECK(max_iterations >= 1, "max_iterations must be at least 1");
  const std::size_t width = rows.front().size();
  for (const auto& r : rows) PMIOT_CHECK(r.size() == width, "ragged rows");
  const auto kk = std::min<std::size_t>(static_cast<std::size_t>(k), rows.size());

  ml::KMeansResult result;
  // k-means++ seeding.
  result.centroids.push_back(
      rows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(rows.size()) - 1))]);
  std::vector<double> min_d2(rows.size(), std::numeric_limits<double>::max());
  while (result.centroids.size() < kk) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      min_d2[i] = std::min(min_d2[i], dist2(rows[i], result.centroids.back()));
    }
    double total = 0.0;
    for (double d : min_d2) total += d;
    if (total <= 0.0) break;  // all points coincide with centroids
    double draw = rng.uniform() * total;
    std::size_t chosen = rows.size() - 1;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      draw -= min_d2[i];
      if (draw <= 0.0) {
        chosen = i;
        break;
      }
    }
    result.centroids.push_back(rows[chosen]);
  }

  result.assignment.assign(rows.size(), 0);
  const std::size_t nc = result.centroids.size();  // fixed after seeding
  std::vector<double> sums(nc * width);
  std::vector<std::size_t> counts(nc);
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    // Assign.
    for (std::size_t i = 0; i < rows.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < nc; ++c) {
        const double d = dist2(rows[i], result.centroids[c]);
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
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      for (std::size_t f = 0; f < width; ++f) sums[c * width + f] += rows[i][f];
    }
    for (std::size_t c = 0; c < nc; ++c) {
      if (counts[c] == 0) continue;  // keep old centroid for empty cluster
      for (std::size_t f = 0; f < width; ++f) {
        result.centroids[c][f] =
            sums[c * width + f] / static_cast<double>(counts[c]);
      }
    }
    if (!changed) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    result.inertia += dist2(
        rows[i], result.centroids[static_cast<std::size_t>(result.assignment[i])]);
  }
  return result;
}

}  // namespace pmiot::reference
