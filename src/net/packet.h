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
#include <unordered_map>
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

 private:
  double idle_timeout_s_;
  std::vector<Flow> flows_;
  // Index into `flows_` of the active flow per key. Tables in the
  // evaluation hold a few thousand flows and every packet does a lookup,
  // so this must not degrade to a linear scan.
  //
  // Determinism contract: this map is only ever probed point-wise
  // (find/erase/insert in FlowTable::add) and MUST NOT be iterated — all
  // user-visible output flows through `flows_`, whose insertion order is
  // the packet order. pmiot-lint's `unordered-iter` rule enforces this
  // mechanically: iterating `active_` anywhere in this translation unit
  // fails the `pmiot_lint.tree` ctest unless the site carries an explicit
  // allow with a justification.
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> active_;
};

/// Sorts packets by timestamp (generators emit per-device, merge for the
/// gateway view). Stable: equal timestamps keep their input order.
void sort_by_time(std::vector<Packet>& packets);

/// `sort_by_time` for a capture whose first `prefix` packets are already
/// in order and whose tail was appended: stable-sorts only the tail and
/// merges it in, so the result is identical to `sort_by_time(packets)` (a
/// tied prefix packet precedes a tied tail packet). Falls back to the full
/// sort when the prefix turns out unsorted. Throws InvalidArgument when
/// `prefix` exceeds the capture.
void merge_sorted_tail(std::vector<Packet>& packets, std::size_t prefix);

}  // namespace pmiot::net
