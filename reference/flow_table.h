// Node-based flow table: full per-flow records, the readable oracle for
// the flow counts of the production `net::WindowAccumulator` (which keeps
// only each active key's last packet time). `extract_window_features`
// aggregates flows with this table, so the window-feature oracle does not
// share the flow index it checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.h"

namespace pmiot::reference {

/// Aggregated bidirectional flow statistics.
// pmiot: sensitive — flow records summarize who talked to whom and when.
struct Flow {
  net::FlowKey key;
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
  /// the timeout logic to be meaningful).
  void add(const net::Packet& packet);

  /// All flows, including ones still active, in first-packet order.
  const std::vector<Flow>& flows() const noexcept { return flows_; }

 private:
  double idle_timeout_s_;
  std::vector<Flow> flows_;
  // Index into `flows_` of the active flow per key. Determinism contract:
  // this map is only ever probed point-wise (find/erase/insert in `add`)
  // and MUST NOT be iterated — all output flows through `flows_`, whose
  // insertion order is the packet order. pmiot-lint's `unordered-iter`
  // rule enforces this mechanically.
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> active_;
};

}  // namespace pmiot::reference
