// Packet records and flow identities for the simulated home IoT LAN
// (paper §IV).
//
// The substitution for libpcap on a physical network: device behaviour
// models emit `Packet` records, and the gateway's window accumulator counts
// the bidirectional flows they form (`FlowKey`) the way a monitoring
// gateway would. Addresses are synthetic; 10.0.0.0/24 is the LAN,
// everything else is "the Internet".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pmiot::net {

enum class Protocol : std::uint8_t { kTcp, kUdp };

/// One observed packet. Timestamps are seconds from the capture start.
// pmiot: sensitive — packet metadata is the §II traffic-analysis substrate;
// timing/size sequences reveal device activity and thus occupancy.
struct Packet {
  double timestamp_s = 0.0;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol protocol = Protocol::kTcp;
  int size_bytes = 0;

  bool operator==(const Packet&) const = default;
};

/// Dotted-quad helpers for synthetic addresses.
std::uint32_t make_ip(int a, int b, int c, int d);
std::string ip_to_string(std::uint32_t ip);

/// True for addresses inside the home LAN (10.0.0.0/24 here).
inline bool is_lan(std::uint32_t ip) noexcept {
  return (ip >> 8) == 0x0a0000;  // 10.0.0
}

/// Roster position of each device by the last octet of its address: on the
/// /24 LAN the octet identifies the address, so routing a packet to its
/// device is one table load rather than a hash probe.
class DeviceSlots {
 public:
  DeviceSlots() noexcept { slots_.fill(-1); }

  /// Gives `ip` the next slot (0, 1, ... in call order). Throws
  /// InvalidArgument unless `ip` is a LAN address not added before.
  void add(std::uint32_t ip);

  /// The slot of `ip`, or -1 when no added device has that address.
  int operator[](std::uint32_t ip) const noexcept {
    return is_lan(ip) ? slots_[ip & 0xff] : -1;
  }

 private:
  std::array<std::int16_t, 256> slots_;
  std::int16_t next_ = 0;
};

/// Canonical bidirectional flow identity (sorted endpoints).
struct FlowKey {
  std::uint32_t ip_a = 0, ip_b = 0;
  std::uint16_t port_a = 0, port_b = 0;
  Protocol protocol = Protocol::kTcp;

  bool operator==(const FlowKey&) const = default;
};

/// Hash over all key fields so a flow table can index active flows.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const noexcept;
};

/// Reusable buffers for `sort_by_time`: the merge buffer and the run
/// bounds. Callers that sort many captures keep one to avoid reallocating.
struct SortScratch {
  std::vector<Packet> buffer;
  std::vector<std::size_t> runs;
};

/// Sorts packets by timestamp (generators emit per-device, merge for the
/// gateway view). Stable: equal timestamps keep their input order. A
/// natural-run merge sort: it finds the maximal non-decreasing runs and
/// merges neighbours pairwise in place, each merge through a copy of its
/// shorter side, so a capture of r emission runs costs O(n log r) and the
/// buffer at most n/2 packets.
void sort_by_time(std::vector<Packet>& packets);
void sort_by_time(std::vector<Packet>& packets, SortScratch& scratch);

/// The concatenation of `streams`, `sort_by_time`d into `out` (replaced):
/// a tie keeps stream order, then each stream's own order.
void merge_streams(std::span<const std::vector<Packet>> streams,
                   std::vector<Packet>& out, SortScratch& scratch);

/// Feeds `sink` the packets of a few time-sorted `runs` in (timestamp, run)
/// order: `std::stable_sort` by time of their concatenation. The last run
/// left goes straight through. An unsorted run keeps its own order, so a
/// sink that checks time order refuses it.
template <std::size_t N, typename Sink>
void merge_by_time(std::array<std::span<const Packet>, N> runs, Sink&& sink) {
  for (;;) {
    // The run with the first head and the first head of the rest, each
    // tie to the earlier run.
    std::size_t take = N, next = N;
    for (std::size_t r = 0; r < N; ++r) {
      if (runs[r].empty()) continue;
      const double t = runs[r].front().timestamp_s;
      if (take == N || t < runs[take].front().timestamp_s) {
        next = take;
        take = r;
      } else if (next == N || t < runs[next].front().timestamp_s) {
        next = r;
      }
    }
    if (take == N) return;
    auto& run = runs[take];
    if (next == N) {
      for (const auto& p : run) sink(p);
      return;
    }
    // `take` goes on up to `next`'s head, and past a tie if it is earlier.
    const double bound = runs[next].front().timestamp_s;
    std::size_t i = 0;
    do {
      sink(run[i++]);
    } while (i < run.size() && (run[i].timestamp_s < bound ||
                                (take < next && run[i].timestamp_s == bound)));
    run = run.subspan(i);
  }
}

}  // namespace pmiot::net
