#include "reference/flow_table.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::reference {

namespace {

// The counters `net::WindowAccumulator` counts flow starts with, so an
// oracle pass over the same windows counts the same totals.
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

}  // namespace

FlowTable::FlowTable(double idle_timeout_s)
    : idle_timeout_s_(idle_timeout_s) {
  PMIOT_CHECK(idle_timeout_s > 0.0, "timeout must be positive");
}

void FlowTable::add(const net::Packet& packet) {
  // Canonicalize direction: (ip_a, port_a) is the numerically smaller
  // endpoint, so both directions land on the same key.
  net::FlowKey key;
  bool forward;  // packet travels a -> b
  if (packet.src_ip < packet.dst_ip ||
      (packet.src_ip == packet.dst_ip && packet.src_port <= packet.dst_port)) {
    key = net::FlowKey{packet.src_ip, packet.dst_ip, packet.src_port,
                       packet.dst_port, packet.protocol};
    forward = true;
  } else {
    key = net::FlowKey{packet.dst_ip, packet.src_ip, packet.dst_port,
                       packet.src_port, packet.protocol};
    forward = false;
  }

  // Find an active (non-timed-out) flow for the key.
  if (const auto it = active_.find(key); it != active_.end()) {
    Flow& flow = flows_[it->second];
    if (packet.timestamp_s - flow.last_ts > idle_timeout_s_) {
      // Timed out: retire it and start a new flow below.
      active_.erase(it);
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
  active_[key] = flows_.size() - 1;
  flow_inserts_counter().add();
}

}  // namespace pmiot::reference
