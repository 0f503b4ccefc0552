// Single-pass streaming feature extraction for the smart gateway.
//
// Rescanning the whole capture once per window is an
// O(windows × packets) pattern that cannot keep up with line-rate traffic
// (the paper's §IV gateway fingerprints devices continuously). The
// accumulator ingests each packet exactly once, in timestamp order, keeps
// incremental per-window state (counts, byte sums, Welford mean/variance of
// packet sizes, distinct remote/port trackers, a per-window flow table,
// burst buckets),
// and emits a finished feature vector every time a window boundary passes.
//
// The output is bit-for-bit identical to the per-window rescan
// `reference::extract_window_features` on each window [k·w, (k+1)·w) of the
// same sorted capture: both apply the same arithmetic to the same packets
// in the same order (a randomized property test in net_test enforces it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "net/features.h"
#include "net/open_table.h"
#include "net/packet.h"

namespace pmiot::net {

/// Streaming one-device feature extractor over consecutive windows of
/// `window_s` seconds, aligned at t = 0. Feed packets in non-decreasing
/// timestamp order via `add` (the whole capture is fine — other devices'
/// packets are ignored — but routing each device its own packets is what
/// `SmartGateway::extract_rows` does), then call `finish` once.
class WindowAccumulator {
 public:
  /// `keep_idle_windows`: emit an all-zero row for windows with no device
  /// traffic instead of skipping them. Either way `WindowRow::window_index`
  /// is the wall-clock window number, so rows never silently shift.
  /// `router_ip` is the gateway's own address, excluded from both the
  /// LAN-peer and remote tallies.
  WindowAccumulator(std::uint32_t device_ip, double window_s,
                    bool keep_idle_windows = false,
                    std::uint32_t router_ip = kDefaultRouterIp);

  /// Ingests one packet. Timestamps must be non-decreasing; packets with a
  /// negative timestamp or not involving the device are ignored (after
  /// window bookkeeping).
  void add(const Packet& packet);

  /// Closes every window whose end lies within [0, duration_s] and returns
  /// the emitted rows in window order. Windows already opened past
  /// `duration_s` (trailing partial traffic) are discarded, mirroring
  /// `windowed_features`' full-window semantics. Terminal: call once.
  std::vector<WindowRow> finish(double duration_s);

 private:
  struct IpHash {
    std::size_t operator()(std::uint32_t ip) const noexcept {
      return mix_bits(ip);
    }
  };

  /// Per-window incremental state, emptied in place on every window close
  /// so its buffers keep their capacity across windows.
  struct State {
    FlowTable flow_table;
    stats::Accumulator up_size, down_size;
    std::vector<double> up_times;
    double up_bytes = 0.0, down_bytes = 0.0;
    std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
    // Distinct remotes and upstream ports; only the counts are read. A
    // scanner or DDoS window sees thousands of each, so membership is a
    // hash probe and a bit test, never a scan.
    OpenTable<std::uint32_t, IpHash> remotes;
    std::vector<std::uint64_t> port_bits;  ///< one bit per port
    std::vector<std::uint16_t> ports;      ///< set bits, to clear them
    std::vector<std::size_t> buckets;
    std::vector<double> iats;  ///< close-time scratch

    explicit State(std::size_t num_buckets)
        : port_bits(65536 / 64, 0), buckets(num_buckets, 0) {}

    /// Back to the freshly constructed state, keeping capacity.
    void reset();
  };

  void close_window();

  std::uint32_t device_ip_;
  double window_s_;
  bool keep_idle_windows_;
  std::uint32_t router_ip_;
  std::size_t num_buckets_;
  std::size_t current_ = 0;   ///< index of the open window
  double window_end_;         ///< (current_ + 1) * window_s_
  double last_timestamp_ = 0.0;
  State state_;
  std::vector<WindowRow> rows_;
};

}  // namespace pmiot::net
