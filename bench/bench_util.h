// Helpers every timed bench shares: the wall clock its timings are taken
// with, and the exit path of a failed self-check.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

namespace pmiot::bench {

using Clock = std::chrono::steady_clock;

/// Wall milliseconds from `t0` to `t1`.
inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Reports a self-check mismatch on stderr, `parts` streamed after the
/// "MISMATCH: " prefix; returns the bench's exit code.
template <typename... Parts>
int fail(const Parts&... parts) {
  std::cerr << "MISMATCH: ";
  (std::cerr << ... << parts) << '\n';
  return EXIT_FAILURE;
}

}  // namespace pmiot::bench
