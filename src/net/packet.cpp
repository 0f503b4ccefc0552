#include "net/packet.h"

#include <algorithm>
#include <cstdio>
#include <span>

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

namespace {

/// Merges the adjacent sorted ranges [first, mid) and [mid, last) in
/// place, through a copy of the shorter one in `buffer`. Stable: a tie
/// keeps the left range's packet first.
void merge_adjacent(Packet* first, Packet* mid, Packet* last,
                    std::vector<Packet>& buffer) {
  if (first == mid || mid == last || !earlier(*mid, *(mid - 1))) return;
  if (mid - first <= last - mid) {
    // Forward from the front: the write position never passes the unread
    // part of the right range.
    buffer.assign(first, mid);
    const Packet* left = buffer.data();
    const Packet* const left_end = left + buffer.size();
    const Packet* right = mid;
    Packet* out = first;
    while (left != left_end && right != last) {
      *out++ = earlier(*right, *left) ? *right++ : *left++;
    }
    std::copy(left, left_end, out);  // the right range's rest is in place
  } else {
    // Backward from the end, the mirror image: the later of the two tails
    // goes last, and on a tie that is the right range's packet.
    buffer.assign(mid, last);
    const Packet* const right_begin = buffer.data();
    const Packet* right = right_begin + buffer.size();
    const Packet* left = mid;
    Packet* out = last;
    while (left != first && right != right_begin) {
      *--out = earlier(*(right - 1), *(left - 1)) ? *--left : *--right;
    }
    std::copy_backward(right_begin, right, out);
  }
}

/// Merges runs [lo, hi) into one, where run r is [bounds[r], bounds[r + 1])
/// of `data`: each half first, then the two halves. Depth first, so the
/// small merges of a half are done while its packets are still in cache.
void merge_run_range(Packet* data, const std::size_t* bounds, std::size_t lo,
                     std::size_t hi, std::vector<Packet>& buffer) {
  if (hi - lo < 2) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  merge_run_range(data, bounds, lo, mid, buffer);
  merge_run_range(data, bounds, mid, hi, buffer);
  merge_adjacent(data + bounds[lo], data + bounds[mid], data + bounds[hi],
                 buffer);
}

/// The run merge behind `sort_by_time` and `merge_sorted_tail`: finds the
/// maximal non-decreasing runs of `packets` and merges neighbours in place
/// until one is left. Returns the number of runs found.
///
/// Every merge joins two adjacent ranges and keeps the left one's packet on
/// ties, and the left range holds the earlier input positions, so whatever
/// the merge tree, the result is std::stable_sort's. The buffer holds the
/// shorter side of one merge, at most half the range.
std::size_t merge_runs(std::span<Packet> packets, SortScratch& scratch) {
  // Run bounds: runs[i] is where run i starts; the last entry is n.
  auto& runs = scratch.runs;
  runs.clear();
  const std::size_t n = packets.size();
  if (n > 0) runs.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    if (earlier(packets[i], packets[i - 1])) runs.push_back(i);
  }
  const std::size_t found = runs.size();
  runs.push_back(n);
  merge_run_range(packets.data(), runs.data(), 0, found, scratch.buffer);
  return found;
}

}  // namespace

void sort_by_time(std::vector<Packet>& packets) {
  SortScratch scratch;
  sort_by_time(packets, scratch);
}

void sort_by_time(std::vector<Packet>& packets, SortScratch& scratch) {
  sort_runs_counter().add(merge_runs(packets, scratch));
}

void merge_sorted_tail(std::vector<Packet>& packets, std::size_t prefix) {
  PMIOT_CHECK(prefix <= packets.size(), "prefix longer than the capture");
  const std::span<Packet> all(packets);
  const std::size_t tail = all.size() - prefix;
  SortScratch scratch;
  // Room for the largest merge below: half the tail, or the final merge's
  // shorter side.
  scratch.buffer.reserve(std::max(tail / 2, std::min(prefix, tail)));
  merge_runs(all.first(prefix), scratch);  // one run unless unsorted
  merge_runs(all.subspan(prefix), scratch);
  merge_adjacent(all.data(), all.data() + prefix, all.data() + all.size(),
                 scratch.buffer);
}

}  // namespace pmiot::net
