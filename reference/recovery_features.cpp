#include "reference/recovery_features.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.h"
#include "net/arena.h"

namespace pmiot::reference {

std::vector<double> extract_recovery_features(
    std::span<const net::Packet> packets, std::uint32_t device_ip, double t0,
    double t1) {
  PMIOT_CHECK(t1 > t0, "empty window");
  std::vector<double> times;
  std::map<int, std::size_t> size_counts;  // ordered: ties -> smallest
  const auto num_buckets = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil((t1 - t0) / 1.0)), 1);
  std::vector<std::size_t> buckets(num_buckets, 0);
  for (const auto& p : packets) {
    if (p.timestamp_s < t0 || p.timestamp_s >= t1) continue;
    if (p.src_ip != device_ip && p.dst_ip != device_ip) continue;
    times.push_back(p.timestamp_s);
    ++size_counts[p.size_bytes];
    const auto bucket = std::min(
        static_cast<std::size_t>(p.timestamp_s - t0), num_buckets - 1);
    ++buckets[bucket];
  }

  std::vector<double> f(net::recovery_feature_names().size(), 0.0);
  if (times.empty()) return f;

  std::sort(times.begin(), times.end());
  if (times.size() >= 2) {
    // Periodicity recovery: bin IATs at 10 ms and find the modal gap; a
    // shaper's slot cadence concentrates mass in one bin, while its queue
    // overflow shows up as gaps far *below* the mode.
    std::map<long, std::size_t> iat_bins;
    std::size_t num_iats = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      ++iat_bins[std::lround((times[i] - times[i - 1]) * 100.0)];
      ++num_iats;
    }
    long mode_bin = 0;
    std::size_t mode_count = 0;
    for (const auto& [bin, count] : iat_bins) {
      if (count > mode_count) {  // ties keep the smallest bin
        mode_count = count;
        mode_bin = bin;
      }
    }
    f[0] = static_cast<double>(mode_count) / static_cast<double>(num_iats);
    const double mode_gap = static_cast<double>(mode_bin) / 100.0;
    if (mode_gap > 0.0) {
      std::size_t sub = 0;
      for (std::size_t i = 1; i < times.size(); ++i) {
        if (times[i] - times[i - 1] < 0.5 * mode_gap) ++sub;
      }
      f[1] = static_cast<double>(sub) / static_cast<double>(num_iats);
    }
  }
  double burst = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double width =
        std::min(1.0, (t1 - t0) - static_cast<double>(b));
    burst = std::max(burst, static_cast<double>(buckets[b]) / width);
  }
  f[2] = burst;
  std::size_t size_mode = 0;
  for (const auto& [size, count] : size_counts) {
    size_mode = std::max(size_mode, count);
  }
  f[3] = static_cast<double>(size_mode) / static_cast<double>(times.size());
  return f;
}

}  // namespace pmiot::reference
