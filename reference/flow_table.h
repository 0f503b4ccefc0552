// Node-based flow table: the readable reference the production
// `net::FlowTable` (open-addressed index, src/net/packet.h) is held to.
// `reference::extract_window_features` aggregates flows with this one, so
// the window-feature oracle does not share the flow index it checks.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "net/packet.h"

namespace pmiot::reference {

/// Aggregates packets into flows with an idle timeout: a packet arriving
/// more than `idle_timeout_s` after a flow's last packet starts a new flow.
class FlowTable {
 public:
  explicit FlowTable(double idle_timeout_s = 120.0);

  /// Adds one packet (timestamps must be non-decreasing per flow key for
  /// the timeout logic to be meaningful).
  void add(const net::Packet& packet);

  /// All flows, including ones still active, in first-packet order.
  const std::vector<net::Flow>& flows() const noexcept { return flows_; }

 private:
  double idle_timeout_s_;
  std::vector<net::Flow> flows_;
  // Index into `flows_` of the active flow per key. Determinism contract:
  // this map is only ever probed point-wise (find/erase/insert in `add`)
  // and MUST NOT be iterated — all output flows through `flows_`, whose
  // insertion order is the packet order. pmiot-lint's `unordered-iter`
  // rule enforces this mechanically.
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> active_;
};

}  // namespace pmiot::reference
