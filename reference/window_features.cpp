#include "reference/window_features.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "reference/flow_table.h"

namespace pmiot::reference {
namespace {

template <typename T>
void insert_unique(std::vector<T>& values, T value) {
  if (std::find(values.begin(), values.end(), value) == values.end()) {
    values.push_back(value);
  }
}

}  // namespace

std::vector<double> extract_window_features(
    std::span<const net::Packet> packets, std::uint32_t device_ip, double t0,
    double t1, std::uint32_t router_ip) {
  PMIOT_CHECK(t1 > t0, "empty window");
  const double window_s = t1 - t0;

  FlowTable flow_table;
  stats::Accumulator up_size, down_size;
  std::vector<double> up_times;
  double up_bytes = 0, down_bytes = 0;
  std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
  std::vector<std::uint32_t> remotes;
  std::vector<std::uint16_t> ports;
  const auto num_buckets = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(window_s / 10.0)), 1);
  std::vector<std::size_t> buckets(num_buckets, 0);

  for (const auto& p : packets) {
    if (p.timestamp_s < t0 || p.timestamp_s >= t1) continue;
    const bool up = p.src_ip == device_ip;
    const bool down = p.dst_ip == device_ip;
    if (!up && !down) continue;
    ++total;
    flow_table.add(p);
    if (p.protocol == net::Protocol::kUdp) ++udp;
    const auto peer = up ? p.dst_ip : p.src_ip;
    if (net::is_lan(peer) && peer != router_ip) {
      ++lan_pkts;  // LAN peer other than the router
    } else if (!net::is_lan(peer)) {
      insert_unique(remotes, peer);
    }
    // One DNS exchange = one upstream query + its response; count queries
    // so the rate is exchanges, not packets.
    if (up && p.dst_port == 53) ++dns;
    const auto bucket = std::min(
        static_cast<std::size_t>((p.timestamp_s - t0) / 10.0),
        num_buckets - 1);
    ++buckets[bucket];
    if (up) {
      up_size.add(p.size_bytes);
      up_bytes += p.size_bytes;
      up_times.push_back(p.timestamp_s);
      insert_unique(ports, p.dst_port);
    } else {
      down_size.add(p.size_bytes);
      down_bytes += p.size_bytes;
    }
  }

  std::vector<double> f(net::feature_names().size(), 0.0);
  if (total == 0) return f;

  f[0] = static_cast<double>(up_size.count()) / window_s;
  f[1] = static_cast<double>(down_size.count()) / window_s;
  f[2] = up_bytes / window_s;
  f[3] = down_bytes / window_s;
  f[4] = up_size.count() == 0 ? 0.0 : up_size.mean();
  f[5] = up_size.count() == 0 ? 0.0 : up_size.stddev();
  f[6] = down_size.count() == 0 ? 0.0 : down_size.mean();
  f[7] = (up_bytes + down_bytes) > 0 ? up_bytes / (up_bytes + down_bytes) : 0;
  f[8] = static_cast<double>(udp) / static_cast<double>(total);
  f[9] = static_cast<double>(remotes.size());
  f[10] = static_cast<double>(ports.size());
  f[11] = static_cast<double>(lan_pkts) / static_cast<double>(total);

  if (up_times.size() >= 3) {
    std::sort(up_times.begin(), up_times.end());
    std::vector<double> iats;
    for (std::size_t i = 1; i < up_times.size(); ++i) {
      iats.push_back(up_times[i] - up_times[i - 1]);
    }
    f[12] = stats::median(iats);
    const double m = stats::mean(iats);
    f[13] = m > 0 ? stats::stddev(iats) / m : 0.0;
  }
  // Each bucket is normalized by its true width, so a truncated final
  // bucket (window not a multiple of 10 s) is not biased low.
  double burst = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double width = std::min(10.0, window_s - 10.0 * static_cast<double>(b));
    burst = std::max(burst, static_cast<double>(buckets[b]) / width);
  }
  f[14] = burst;
  f[15] = static_cast<double>(dns) / (window_s / 60.0);
  f[16] = static_cast<double>(flow_table.flows().size());
  return f;
}

}  // namespace pmiot::reference
