// Step-edge detection over power traces.
//
// PowerPlay-style NILM identifies appliances by the on/off power steps they
// produce in the aggregate signal; NIOM's range feature and the gateway
// anomaly detector reuse the same primitive.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pmiot::ts {

/// One detected step change in a signal.
struct Edge {
  std::size_t index = 0;  ///< sample index at which the new level starts
  double delta = 0.0;     ///< signed magnitude of the step
  bool rising() const noexcept { return delta > 0.0; }
};

/// Detects steps whose |delta| >= min_delta between consecutive samples,
/// after optional pre-smoothing handled by the caller. Consecutive samples
/// moving in the same direction are merged into a single edge (a slow ramp
/// over a few samples reads as one appliance event).
std::vector<Edge> detect_edges(std::span<const double> xs, double min_delta);

}  // namespace pmiot::ts
