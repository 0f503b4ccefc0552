#include "net/window_accumulator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::net {

namespace {

obs::Counter& packets_ingested_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.packets_ingested");
  return c;
}

obs::Counter& windows_emitted_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.windows_emitted");
  return c;
}

obs::Counter& idle_windows_dropped_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.idle_windows_dropped");
  return c;
}

}  // namespace

void WindowAccumulator::State::reset() {
  flow_table.clear();
  up_size = stats::Accumulator{};
  down_size = stats::Accumulator{};
  up_times.clear();
  up_bytes = down_bytes = 0.0;
  udp = total = lan_pkts = dns = 0;
  remotes.clear();
  for (const auto port : ports) port_bits[port / 64] = 0;
  ports.clear();
  std::fill(buckets.begin(), buckets.end(), 0);
}

WindowAccumulator::WindowAccumulator(std::uint32_t device_ip, double window_s,
                                     bool keep_idle_windows,
                                     std::uint32_t router_ip)
    : device_ip_(device_ip),
      window_s_(window_s),
      keep_idle_windows_(keep_idle_windows),
      router_ip_(router_ip),
      num_buckets_(std::max<std::size_t>(
          static_cast<std::size_t>(std::ceil(window_s / 10.0)), 1)),
      window_end_(window_s),
      state_(num_buckets_) {
  PMIOT_CHECK(window_s > 0.0, "window must be positive");
}

void WindowAccumulator::add(const Packet& p) {
  PMIOT_CHECK(p.timestamp_s >= last_timestamp_,
              "packets must arrive in timestamp order (use sort_by_time)");
  last_timestamp_ = p.timestamp_s;
  if (p.timestamp_s < 0.0) return;
  while (p.timestamp_s >= window_end_) close_window();

  const bool up = p.src_ip == device_ip_;
  const bool down = p.dst_ip == device_ip_;
  if (!up && !down) return;

  packets_ingested_counter().add();

  // Mirrors the reference rescan's packet ingestion exactly — same
  // operations in the same order, so finished windows match bit-for-bit.
  ++state_.total;
  state_.flow_table.add(p);
  if (p.protocol == Protocol::kUdp) ++state_.udp;
  const auto peer = up ? p.dst_ip : p.src_ip;
  if (is_lan(peer) && peer != router_ip_) {
    ++state_.lan_pkts;  // LAN peer other than the router
  } else if (!is_lan(peer)) {
    state_.remotes.try_emplace(peer, 0);
  }
  if (up && p.dst_port == 53) ++state_.dns;
  const double t0 = static_cast<double>(current_) * window_s_;
  const auto bucket = std::min(
      static_cast<std::size_t>((p.timestamp_s - t0) / 10.0), num_buckets_ - 1);
  ++state_.buckets[bucket];
  if (up) {
    state_.up_size.add(p.size_bytes);
    state_.up_bytes += p.size_bytes;
    state_.up_times.push_back(p.timestamp_s);
    auto& word = state_.port_bits[p.dst_port / 64];
    const std::uint64_t bit = std::uint64_t{1} << (p.dst_port % 64);
    if ((word & bit) == 0) {
      word |= bit;
      state_.ports.push_back(p.dst_port);
    }
  } else {
    state_.down_size.add(p.size_bytes);
    state_.down_bytes += p.size_bytes;
  }
}

void WindowAccumulator::close_window() {
  if (state_.total > 0 || keep_idle_windows_) {
    std::vector<double> f(feature_names().size(), 0.0);
    if (state_.total > 0) {
      const double window_s = window_s_;
      f[0] = static_cast<double>(state_.up_size.count()) / window_s;
      f[1] = static_cast<double>(state_.down_size.count()) / window_s;
      f[2] = state_.up_bytes / window_s;
      f[3] = state_.down_bytes / window_s;
      f[4] = state_.up_size.count() == 0 ? 0.0 : state_.up_size.mean();
      f[5] = state_.up_size.count() == 0 ? 0.0 : state_.up_size.stddev();
      f[6] = state_.down_size.count() == 0 ? 0.0 : state_.down_size.mean();
      f[7] = (state_.up_bytes + state_.down_bytes) > 0
                 ? state_.up_bytes / (state_.up_bytes + state_.down_bytes)
                 : 0;
      f[8] = static_cast<double>(state_.udp) /
             static_cast<double>(state_.total);
      f[9] = static_cast<double>(state_.remotes.size());
      f[10] = static_cast<double>(state_.ports.size());
      f[11] = static_cast<double>(state_.lan_pkts) /
              static_cast<double>(state_.total);
      if (state_.up_times.size() >= 3) {
        std::sort(state_.up_times.begin(), state_.up_times.end());
        auto& iats = state_.iats;
        iats.clear();
        for (std::size_t i = 1; i < state_.up_times.size(); ++i) {
          iats.push_back(state_.up_times[i] - state_.up_times[i - 1]);
        }
        f[12] = stats::median(iats);
        const double m = stats::mean(iats);
        f[13] = m > 0 ? stats::stddev(iats) / m : 0.0;
      }
      double burst = 0.0;
      for (std::size_t b = 0; b < state_.buckets.size(); ++b) {
        const double width =
            std::min(10.0, window_s - 10.0 * static_cast<double>(b));
        burst = std::max(burst,
                         static_cast<double>(state_.buckets[b]) / width);
      }
      f[14] = burst;
      f[15] = static_cast<double>(state_.dns) / (window_s / 60.0);
      f[16] = static_cast<double>(state_.flow_table.flows().size());
    }
    rows_.push_back(WindowRow{current_, std::move(f)});
    windows_emitted_counter().add();
  } else {
    idle_windows_dropped_counter().add();
  }
  ++current_;
  window_end_ = static_cast<double>(current_ + 1) * window_s_;
  // An idle window left the state untouched.
  if (state_.total > 0) state_.reset();
}

std::vector<WindowRow> WindowAccumulator::finish(double duration_s) {
  PMIOT_CHECK(duration_s >= window_s_, "need at least one full window");
  // Count full windows the same way the per-window loop does: window k is
  // emitted iff (k+1)*window_s <= duration_s.
  std::size_t full_windows = 0;
  while (static_cast<double>(full_windows + 1) * window_s_ <= duration_s) {
    ++full_windows;
  }
  while (current_ < full_windows) close_window();
  // Drop windows opened by trailing packets past duration_s.
  while (!rows_.empty() && rows_.back().window_index >= full_windows) {
    rows_.pop_back();
  }
  return std::move(rows_);
}

}  // namespace pmiot::net
