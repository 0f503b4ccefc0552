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

obs::Counter& flow_inserts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.flow_table.flow_inserts");
  return c;
}

obs::Counter& flow_evictions_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.flow_table.flow_evictions");
  return c;
}

/// Canonical direction: (ip_a, port_a) is the numerically smaller
/// endpoint, so both directions of a flow land on the same key.
FlowKey canonical_key(const Packet& p) noexcept {
  if (p.src_ip < p.dst_ip ||
      (p.src_ip == p.dst_ip && p.src_port <= p.dst_port)) {
    return FlowKey{p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol};
  }
  return FlowKey{p.dst_ip, p.src_ip, p.dst_port, p.src_port, p.protocol};
}

}  // namespace

void WindowAccumulator::State::reset() {
  flows.clear();
  flow_starts = 0;
  memo.last = nullptr;
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

  // Mirrors the reference rescan's packet ingestion: the same sums in the
  // same order, so finished windows match bit-for-bit.
  ++state_.total;
  const auto peer = up ? p.dst_ip : p.src_ip;
  // The peer is a function of the flow key and the device, so only a
  // key's first packet in the window can bring a new remote.
  if (track_flow(p) && !is_lan(peer)) state_.remotes.try_emplace(peer, 0);
  if (p.protocol == Protocol::kUdp) ++state_.udp;
  if (is_lan(peer) && peer != router_ip_) ++state_.lan_pkts;
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

bool WindowAccumulator::track_flow(const Packet& p) {
  const FlowKey key = canonical_key(p);
  double* last = state_.memo.last;
  if (last == nullptr || !(key == state_.memo.key)) {
    const auto [slot, inserted] = state_.flows.try_emplace(key, p.timestamp_s);
    state_.memo.key = key;
    state_.memo.last = &slot;
    if (inserted) {
      ++state_.flow_starts;
      flow_inserts_counter().add();
      return true;
    }
    last = &slot;
  }
  if (p.timestamp_s - *last > kFlowIdleTimeoutS) {
    // Timed out: the key's flow ended and this packet starts a new one.
    *last = p.timestamp_s;
    ++state_.flow_starts;
    flow_evictions_counter().add();
    flow_inserts_counter().add();
  } else {
    *last = std::max(*last, p.timestamp_s);
  }
  return false;
}

void WindowAccumulator::close_window() {
  if (state_.total > 0 || keep_idle_windows_) {
    std::vector<double> f = zero_features();
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
        // `add` admits packets in time order only, so `up_times` is
        // already sorted and its neighbour gaps are the IATs.
        auto& iats = state_.iats;
        iats.clear();
        for (std::size_t i = 1; i < state_.up_times.size(); ++i) {
          iats.push_back(state_.up_times[i] - state_.up_times[i - 1]);
        }
        const double m = stats::mean(iats);
        f[13] = m > 0 ? stats::stddev(iats) / m : 0.0;
        // Last: the selection reorders `iats`, and the sums above must
        // see them in arrival order.
        f[12] = stats::quantile_in_place(iats, 0.5);
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
      f[16] = static_cast<double>(state_.flow_starts);
    }
    rows_.push_back(WindowRow{current_, std::move(f)});
    windows_emitted_counter().add();
  } else {
    idle_windows_dropped_counter().add();
  }
  ++current_;
  window_end_ = static_cast<double>(current_ + 1) * window_s_;
  // An idle window left the state untouched.
  if (state_.total > 0) {
    packets_ingested_counter().add(state_.total);
    state_.reset();
  }
}

std::vector<double> WindowAccumulator::zero_features() {
  const std::size_t width = feature_names().size();
  if (spare_.empty()) {
    if (spare_.capacity() < ++made_) spare_.reserve(2 * made_);
    return std::vector<double>(width, 0.0);
  }
  auto f = std::move(spare_.back());
  spare_.pop_back();
  f.assign(width, 0.0);
  return f;
}

void WindowAccumulator::close_through(double duration_s) {
  PMIOT_CHECK(duration_s >= window_s_, "need at least one full window");
  const auto full_windows = full_window_count(duration_s, window_s_);
  while (current_ < full_windows) close_window();
  // The open window's packets were ingested too, though a window opened
  // past duration_s emits no row.
  if (state_.total > 0) packets_ingested_counter().add(state_.total);
  // Drop windows opened by trailing packets past duration_s.
  while (!rows_.empty() && rows_.back().window_index >= full_windows) {
    spare_.push_back(std::move(rows_.back().features));
    rows_.pop_back();
  }
}

std::vector<WindowRow> WindowAccumulator::finish(double duration_s) {
  close_through(duration_s);
  return std::move(rows_);
}

void WindowAccumulator::finish_into(double duration_s,
                                    std::vector<WindowRow>& out) {
  for (auto& row : out) spare_.push_back(std::move(row.features));
  out.clear();
  close_through(duration_s);
  for (auto& row : rows_) out.push_back(std::move(row));
  rows_.clear();
}

void WindowAccumulator::restart(std::uint32_t device_ip) {
  device_ip_ = device_ip;
  current_ = 0;
  window_end_ = window_s_;
  last_timestamp_ = -std::numeric_limits<double>::infinity();
  state_.reset();
  // The tables return to their smallest size, so a small device after a
  // flooding one probes a few cache lines, not the flood's table.
  state_.flows.clear_and_shrink();
  state_.remotes.clear_and_shrink();
  for (auto& row : rows_) spare_.push_back(std::move(row.features));
  rows_.clear();
}

void route_packets(std::span<const Packet> packets, const DeviceSlots& slots,
                   std::span<WindowAccumulator> accumulators) {
  double last_timestamp = -std::numeric_limits<double>::infinity();
  for (const auto& p : packets) {
    PMIOT_CHECK(p.timestamp_s >= last_timestamp,
                "packets must arrive in timestamp order (use sort_by_time)");
    last_timestamp = p.timestamp_s;
    const int src = slots[p.src_ip];
    const int dst = slots[p.dst_ip];
    if (src >= 0) accumulators[static_cast<std::size_t>(src)].add(p);
    if (dst >= 0 && dst != src) {
      accumulators[static_cast<std::size_t>(dst)].add(p);
    }
  }
}

void PeerQueues::reset(std::size_t devices) {
  from_lower_.resize(std::max(from_lower_.size(), devices));
  from_higher_.resize(from_lower_.size());
  for (auto& queue : from_lower_) queue.clear();
  for (auto& queue : from_higher_) queue.clear();
}

void PeerQueues::add_stream(const DeviceSlots& slots, std::size_t e,
                            std::span<const Packet> stream) {
  const auto self = static_cast<int>(e);
  for (const auto& p : stream) {
    const int src = slots[p.src_ip];
    PMIOT_CHECK(src == self || slots[p.dst_ip] == self,
                "a device's stream holds only its own packets");
    const int peer = src == self ? slots[p.dst_ip] : src;
    if (peer < 0 || peer == self) continue;
    (self < peer ? from_lower_ : from_higher_)[static_cast<std::size_t>(peer)]
        .push_back(p);
  }
}

void PeerQueues::feed(std::size_t d, std::span<const Packet> own,
                      WindowAccumulator& accumulator) {
  // Filled in emitter order, a queue sorts stably to (timestamp, emitter,
  // emission). On a tie `lower` goes before `own`, `own` before `higher`.
  auto& lower = from_lower_[d];
  auto& higher = from_higher_[d];
  if (lower.size() > 1) sort_by_time(lower, sort_);
  if (higher.size() > 1) sort_by_time(higher, sort_);
  std::size_t lo = 0, hi = 0;
  // Everything of `lower` at or before t and of `higher` before t.
  const auto feed_others = [&](double t) {
    for (;;) {
      const bool take_lo = lo < lower.size() && lower[lo].timestamp_s <= t;
      const bool take_hi = hi < higher.size() && higher[hi].timestamp_s < t;
      if (take_lo &&
          (!take_hi || lower[lo].timestamp_s <= higher[hi].timestamp_s)) {
        accumulator.add(lower[lo++]);
      } else if (take_hi) {
        accumulator.add(higher[hi++]);
      } else {
        return;
      }
    }
  };
  for (const auto& p : own) {
    if (lo < lower.size() || hi < higher.size()) feed_others(p.timestamp_s);
    accumulator.add(p);
  }
  feed_others(std::numeric_limits<double>::infinity());
}

}  // namespace pmiot::net
