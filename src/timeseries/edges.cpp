#include "timeseries/edges.h"

#include <cmath>

#include "common/error.h"

namespace pmiot::ts {

std::vector<Edge> detect_edges(std::span<const double> xs, double min_delta) {
  PMIOT_CHECK(min_delta > 0.0, "min_delta must be positive");
  std::vector<Edge> out;
  if (xs.size() < 2) return out;
  std::size_t i = 1;
  while (i < xs.size()) {
    const double step = xs[i] - xs[i - 1];
    if (std::fabs(step) < 1e-12) {
      ++i;
      continue;
    }
    // Merge a monotone run of same-direction changes into one edge.
    const bool up = step > 0.0;
    const std::size_t start = i;
    double delta = step;
    ++i;
    while (i < xs.size()) {
      const double next = xs[i] - xs[i - 1];
      if ((up && next > 1e-12) || (!up && next < -1e-12)) {
        delta += next;
        ++i;
      } else {
        break;
      }
    }
    if (std::fabs(delta) >= min_delta) out.push_back(Edge{start, delta});
  }
  return out;
}

}  // namespace pmiot::ts
