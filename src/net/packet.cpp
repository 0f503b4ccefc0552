#include "net/packet.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::net {

namespace {

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

obs::Counter& sort_runs_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.sort.runs");
  return c;
}

// A closure type, not a function pointer, so the sorts inline it.
constexpr auto earlier = [](const Packet& a, const Packet& b) {
  return a.timestamp_s < b.timestamp_s;
};

}  // namespace

std::uint32_t make_ip(int a, int b, int c, int d) {
  PMIOT_CHECK(a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 &&
                  d >= 0 && d <= 255,
              "ip octet out of range");
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}

std::string ip_to_string(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

void DeviceSlots::add(std::uint32_t ip) {
  PMIOT_CHECK(is_lan(ip), "device slots hold LAN addresses only");
  auto& slot = slots_[ip & 0xff];
  PMIOT_CHECK(slot < 0, "device address added twice: " + ip_to_string(ip));
  slot = next_++;
}

std::size_t FlowKeyHash::operator()(const FlowKey& key) const noexcept {
  std::uint64_t z = (static_cast<std::uint64_t>(key.ip_a) << 32) | key.ip_b;
  z ^= (static_cast<std::uint64_t>(key.port_a) << 24) |
       (static_cast<std::uint64_t>(key.port_b) << 8) |
       static_cast<std::uint64_t>(key.protocol);
  return mix_bits(z);
}

FlowTable::FlowTable(double idle_timeout_s)
    : idle_timeout_s_(idle_timeout_s) {
  PMIOT_CHECK(idle_timeout_s > 0.0, "timeout must be positive");
}

void FlowTable::add(const Packet& packet) {
  // Canonicalize direction: (ip_a, port_a) is the numerically smaller
  // endpoint, so both directions land on the same key.
  FlowKey key;
  bool forward;  // packet travels a -> b
  if (packet.src_ip < packet.dst_ip ||
      (packet.src_ip == packet.dst_ip && packet.src_port <= packet.dst_port)) {
    key = FlowKey{packet.src_ip, packet.dst_ip, packet.src_port,
                  packet.dst_port, packet.protocol};
    forward = true;
  } else {
    key = FlowKey{packet.dst_ip, packet.src_ip, packet.dst_port,
                  packet.src_port, packet.protocol};
    forward = false;
  }

  // Find an active (non-timed-out) flow for the key; a new key is indexed
  // at the flow appended below.
  auto [index, inserted] =
      active_.try_emplace(key, static_cast<std::uint32_t>(flows_.size()));
  if (!inserted) {
    Flow& flow = flows_[index];
    if (packet.timestamp_s - flow.last_ts > idle_timeout_s_) {
      // Timed out: retire it and start a new flow below.
      index = static_cast<std::uint32_t>(flows_.size());
      flow_evictions_counter().add();
    } else {
      flow.last_ts = std::max(flow.last_ts, packet.timestamp_s);
      if (forward) {
        ++flow.packets_ab;
        flow.bytes_ab += static_cast<std::uint64_t>(packet.size_bytes);
      } else {
        ++flow.packets_ba;
        flow.bytes_ba += static_cast<std::uint64_t>(packet.size_bytes);
      }
      return;
    }
  }

  Flow flow;
  flow.key = key;
  flow.first_ts = flow.last_ts = packet.timestamp_s;
  if (forward) {
    flow.packets_ab = 1;
    flow.bytes_ab = static_cast<std::uint64_t>(packet.size_bytes);
  } else {
    flow.packets_ba = 1;
    flow.bytes_ba = static_cast<std::uint64_t>(packet.size_bytes);
  }
  flows_.push_back(flow);
  flow_inserts_counter().add();
}

void FlowTable::clear() noexcept {
  flows_.clear();
  active_.clear();
}

void sort_by_time(std::vector<Packet>& packets) {
  SortScratch scratch;
  sort_by_time(packets, scratch);
}

void sort_by_time(std::vector<Packet>& packets, SortScratch& scratch) {
  // Run bounds: runs[i] is where run i starts; the last entry is n.
  auto& runs = scratch.runs;
  runs.clear();
  const std::size_t n = packets.size();
  if (n > 0) runs.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    if (earlier(packets[i], packets[i - 1])) runs.push_back(i);
  }
  sort_runs_counter().add(runs.size());
  runs.push_back(n);
  if (runs.size() <= 2) return;  // empty or already one run

  // Merge neighbouring runs pairwise, ping-ponging between `packets` and
  // the buffer. std::merge takes the left run's element on ties, and the
  // left run holds the earlier input positions, so every pass preserves
  // input order among equal timestamps: the result is std::stable_sort's.
  auto& buffer = scratch.buffer;
  buffer.resize(n);
  while (runs.size() > 2) {
    const std::size_t num_runs = runs.size() - 1;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < num_runs; r += 2) {
      const auto lo = static_cast<std::ptrdiff_t>(runs[r]);
      if (r + 1 == num_runs) {  // odd run out: carried over unmerged
        std::copy(packets.begin() + lo, packets.end(), buffer.begin() + lo);
      } else {
        const auto mid = static_cast<std::ptrdiff_t>(runs[r + 1]);
        const auto hi = static_cast<std::ptrdiff_t>(runs[r + 2]);
        std::merge(packets.begin() + lo, packets.begin() + mid,
                   packets.begin() + mid, packets.begin() + hi,
                   buffer.begin() + lo, earlier);
      }
      runs[kept++] = runs[r];
    }
    runs[kept++] = n;
    runs.resize(kept);
    packets.swap(buffer);
  }
}

void merge_sorted_tail(std::vector<Packet>& packets, std::size_t prefix) {
  PMIOT_CHECK(prefix <= packets.size(), "prefix longer than the capture");
  const auto mid = packets.begin() + static_cast<std::ptrdiff_t>(prefix);
  if (!std::is_sorted(packets.begin(), mid, earlier)) {
    sort_by_time(packets);
    return;
  }
  std::stable_sort(mid, packets.end(), earlier);
  std::inplace_merge(packets.begin(), mid, packets.end(), earlier);
}

}  // namespace pmiot::net
