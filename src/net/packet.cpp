#include "net/packet.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "net/open_table.h"
#include "obs/metrics.h"

namespace pmiot::net {

namespace {

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
