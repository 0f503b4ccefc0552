// Packet and flow records for the simulated home IoT LAN (paper §IV).
//
// The substitution for libpcap on a physical network: device behaviour
// models emit `Packet` records, and `FlowTable` aggregates them into
// bidirectional flows the way a monitoring gateway would. Addresses are
// synthetic; 10.0.0.0/24 is the LAN, everything else is "the Internet".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/open_table.h"

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
bool is_lan(std::uint32_t ip) noexcept;

/// Canonical bidirectional flow identity (sorted endpoints).
struct FlowKey {
  std::uint32_t ip_a = 0, ip_b = 0;
  std::uint16_t port_a = 0, port_b = 0;
  Protocol protocol = Protocol::kTcp;

  bool operator==(const FlowKey&) const = default;
};

/// Hash over all key fields so the flow table can index active flows.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const noexcept;
};

/// Aggregated bidirectional flow statistics.
// pmiot: sensitive — flow records summarize who talked to whom and when.
struct Flow {
  FlowKey key;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t packets_ab = 0;  ///< from ip_a to ip_b
  std::uint64_t packets_ba = 0;
  std::uint64_t bytes_ab = 0;
  std::uint64_t bytes_ba = 0;

  double duration_s() const noexcept { return last_ts - first_ts; }
  std::uint64_t packets() const noexcept { return packets_ab + packets_ba; }
  std::uint64_t bytes() const noexcept { return bytes_ab + bytes_ba; }
};

/// Aggregates packets into flows with an idle timeout: a packet arriving
/// more than `idle_timeout_s` after a flow's last packet starts a new flow.
class FlowTable {
 public:
  explicit FlowTable(double idle_timeout_s = 120.0);

  /// Adds one packet (timestamps must be non-decreasing per flow key for
  /// the timeout logic to be meaningful; the generators guarantee global
  /// ordering).
  void add(const Packet& packet);

  /// All flows, including ones still active, in first-packet order —
  /// deterministic because it reflects packet arrival, never hash order.
  const std::vector<Flow>& flows() const noexcept { return flows_; }

  /// Forgets every flow; keeps the allocated capacity for reuse.
  void clear() noexcept;

 private:
  double idle_timeout_s_;
  std::vector<Flow> flows_;
  // Index into `flows_` of the active flow per key. Tables in the
  // evaluation hold a few thousand flows and every packet does a lookup,
  // so this must not degrade to a linear scan. `OpenTable` has no
  // iteration interface: all user-visible output flows through `flows_`,
  // whose insertion order is the packet order.
  OpenTable<FlowKey, FlowKeyHash> active_;
};

/// Reusable buffers for `sort_by_time`: the merge destination and the run
/// bounds. Callers that sort many captures keep one to avoid reallocating.
struct SortScratch {
  std::vector<Packet> buffer;
  std::vector<std::size_t> runs;
};

/// Sorts packets by timestamp (generators emit per-device, merge for the
/// gateway view). Stable: equal timestamps keep their input order. A
/// natural-run merge sort: it finds the maximal non-decreasing runs and
/// merges neighbours pairwise, so a capture of r emission runs costs
/// O(n log r). The result may live in what was the scratch buffer (the
/// two vectors are swapped), so pointers into `packets` do not survive.
void sort_by_time(std::vector<Packet>& packets);
void sort_by_time(std::vector<Packet>& packets, SortScratch& scratch);

/// `sort_by_time` for a capture whose first `prefix` packets are already
/// in order and whose tail was appended: stable-sorts only the tail and
/// merges it in, so the result is identical to `sort_by_time(packets)` (a
/// tied prefix packet precedes a tied tail packet). Falls back to the full
/// sort when the prefix turns out unsorted. Throws InvalidArgument when
/// `prefix` exceeds the capture.
void merge_sorted_tail(std::vector<Packet>& packets, std::size_t prefix);

}  // namespace pmiot::net
