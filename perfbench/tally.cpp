#include "tally.h"

#include <algorithm>
#include <exception>

namespace perfbench {

void OpTally::fail_all(const std::string& why) {
  failed = attempted;
  if (first_error.empty()) first_error = why;
}

bool run_ops(OpTally& tally, std::uint64_t ops,
             const std::function<void()>& body) {
  tally.attempted += ops;
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    tally.failed += ops;
    if (tally.first_error.empty()) tally.first_error = e.what();
  } catch (...) {
    tally.failed += ops;
    if (tally.first_error.empty()) tally.first_error = "unknown exception";
  }
  return false;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
