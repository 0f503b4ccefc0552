// Failure accounting and small statistics for the benchmark.
//
// An op is the unit a workload can fail on: a home (fleet), a cell
// (campaign) or a grid (arena). The benchmark runs every op it attempts,
// catches what one throws, counts it as failed, and goes on with the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failure message, for the report.
  std::string first_error;

  double failed_fraction() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }

  /// A wrong output fails every op of the run.
  void fail_all(const std::string& why);
};

/// Runs `body` as `ops` attempted ops. If it throws, all `ops` count as
/// failed, the message is kept, and false is returned; nothing propagates.
bool run_ops(OpTally& tally, std::uint64_t ops,
             const std::function<void()>& body);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

}  // namespace perfbench
