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

/// `sort_by_time` for a capture whose first `prefix` packets are already
/// in order and whose tail was appended: the tail's natural runs are
/// merged into one, then the tail into the prefix, all in place, so the
/// result is identical to `sort_by_time(packets)` (a tied prefix packet
/// precedes a tied tail packet). A tail appended as r sorted runs costs
/// O(t log r) and the prefix one pass; the buffer holds at most half the
/// capture. An unsorted prefix is sorted the same way first. Throws
/// InvalidArgument when `prefix` exceeds the capture.
void merge_sorted_tail(std::vector<Packet>& packets, std::size_t prefix);

}  // namespace pmiot::net
