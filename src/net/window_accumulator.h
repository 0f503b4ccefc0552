// Single-pass streaming feature extraction for the smart gateway.
//
// Rescanning the whole capture once per window is an
// O(windows × packets) pattern that cannot keep up with line-rate traffic
// (the paper's §IV gateway fingerprints devices continuously). The
// accumulator ingests each packet exactly once, in timestamp order, keeps
// incremental per-window state (counts, byte sums, Welford mean/variance of
// packet sizes, distinct remote/port trackers, a count of flow starts,
// burst buckets),
// and emits a finished feature vector every time a window boundary passes.
// Flows are counted, not recorded: feature 16 reads only how many started,
// so the window keeps each active flow key's last packet time and nothing
// else (DESIGN.md §16).
// Closing a window sorts nothing: packets arrive in time order, so the
// upstream timestamps' neighbour gaps are the IATs, and their median is
// selected in place (`stats::quantile_in_place`) rather than read off a
// sorted copy.
//
// The output is bit-for-bit identical to the per-window rescan
// `reference::extract_window_features` on each window [k·w, (k+1)·w) of the
// same sorted capture: both apply the same arithmetic to the same packets
// in the same order (a randomized property test in net_test enforces it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
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

  /// Closes the `full_window_count(duration_s, window_s)` full windows and
  /// returns the emitted rows in window order. Windows already opened past
  /// `duration_s` (trailing partial traffic) are discarded, mirroring
  /// `windowed_features`' full-window semantics. Call once, or `restart`.
  std::vector<WindowRow> finish(double duration_s);

  /// `finish` into `out`, whose previous rows' feature buffers are taken
  /// back for later windows. An accumulator restarted for device after
  /// device, each finished into its own reused `out`, allocates nothing
  /// once its buffers have grown to the largest device seen.
  void finish_into(double duration_s, std::vector<WindowRow>& out);

  /// Re-arms the accumulator for `device_ip` from window 0, with the same
  /// window and router, keeping every buffer's capacity.
  void restart(std::uint32_t device_ip);

  double window_s() const noexcept { return window_s_; }
  std::uint32_t router_ip() const noexcept { return router_ip_; }

 private:
  /// A flow idle for longer than this ends; the key's next packet starts
  /// a new flow (the reference flow table's default timeout).
  static constexpr double kFlowIdleTimeoutS = 120.0;

  /// The previous packet's flow key and its value slot in `State::flows`:
  /// a run of one key's packets skips the hash (DESIGN.md §16). Refreshed
  /// after every `try_emplace` (growth moves slots) and dropped on reset
  /// (the slot is freed). A move hands the slot to the table it moved
  /// with, so the moved-from memo is dropped; a copy would point into
  /// another table, so there is none.
  struct FlowMemo {
    FlowKey key;
    double* last = nullptr;

    FlowMemo() = default;
    FlowMemo(FlowMemo&& other) noexcept
        : key(other.key), last(std::exchange(other.last, nullptr)) {}
    FlowMemo& operator=(FlowMemo&& other) noexcept {
      key = other.key;
      last = std::exchange(other.last, nullptr);
      return *this;
    }
  };

  /// Per-window incremental state, emptied in place on every window close
  /// so its buffers keep their capacity across windows.
  struct State {
    // Active flow key -> its last packet time, and how many flows started
    // (a new key, or a key idle past the timeout).
    OpenTable<FlowKey, FlowKeyHash, double> flows;
    std::size_t flow_starts = 0;
    FlowMemo memo;
    stats::Accumulator up_size, down_size;
    std::vector<double> up_times;  ///< in arrival (= time) order
    double up_bytes = 0.0, down_bytes = 0.0;
    std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
    // Distinct remotes and upstream ports; only the counts are read. A
    // scanner or DDoS window sees thousands of each, so membership is a
    // hash probe and a bit test, never a scan.
    OpenTable<std::uint32_t, IpHash> remotes;
    std::vector<std::uint64_t> port_bits;  ///< one bit per port
    std::vector<std::uint16_t> ports;      ///< set bits, to clear them
    std::vector<std::size_t> buckets;
    std::vector<double> iats;  ///< close-time scratch; the median reorders it

    explicit State(std::size_t num_buckets)
        : port_bits(65536 / 64, 0), buckets(num_buckets, 0) {}

    /// Back to the freshly constructed state, keeping capacity.
    void reset();
  };

  /// Counts the packet into its flow. True iff the packet's key is new in
  /// this window, the only time its peer can be new too.
  bool track_flow(const Packet& packet);
  void close_window();
  /// Closes every full window and drops rows opened past `duration_s`.
  void close_through(double duration_s);
  /// A zeroed feature vector, from `spare_` when one is there.
  std::vector<double> zero_features();

  std::uint32_t device_ip_;
  double window_s_;
  bool keep_idle_windows_;
  std::uint32_t router_ip_;
  std::size_t num_buckets_;
  std::size_t current_ = 0;   ///< index of the open window
  double window_end_;         ///< (current_ + 1) * window_s_
  double last_timestamp_ = -std::numeric_limits<double>::infinity();
  State state_;
  std::vector<WindowRow> rows_;
  /// Feature buffers of rows handed back through `finish_into` or
  /// `restart`; `made_` counts the buffers this accumulator allocated, and
  /// `spare_` keeps room for all of them so recycling never regrows it.
  std::vector<std::vector<double>> spare_;
  std::size_t made_ = 0;
};

/// Windows a home device by device from its per-device streams (each the
/// time-sorted packets one roster device emits), with no merged capture:
/// `feed` gives a device exactly the packets of the capture that involve
/// it, in the order `sort_by_time` of the streams' roster-order
/// concatenation has, (timestamp, emitting device, emission). Buffers keep
/// their capacity from home to home.
class PeerQueues {
 public:
  /// Empties the queues for a home of `devices` roster devices.
  void reset(std::size_t devices);
  /// Queues each packet of roster device `e`'s stream for the other
  /// roster device it involves, if any. Throws InvalidArgument unless `e`
  /// (its slot in `slots`) is at one end of every packet.
  void add_stream(const DeviceSlots& slots, std::size_t e,
                  std::span<const Packet> stream);
  /// Feeds `accumulator` `merge_by_time` of what lower-indexed devices sent
  /// device `d`, its own stream `own`, and what higher-indexed ones sent it.
  /// Call after every stream has been added.
  void feed(std::size_t d, std::span<const Packet> own,
            WindowAccumulator& accumulator);

 private:
  /// Per device, what lower- and higher-indexed devices send it.
  std::vector<std::vector<Packet>> from_lower_, from_higher_;
  SortScratch sort_;
};

}  // namespace pmiot::net
