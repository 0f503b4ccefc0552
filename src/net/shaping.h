// Traffic-reshaping defenses against WAN-side device fingerprinting.
//
// The paper's §II threat model includes the ISP-side observer that
// fingerprints devices (and thus occupancy) from encrypted traffic
// metadata alone; §III-E frames every countermeasure as a tunable knob
// trading privacy against utility. This module instantiates that knob for
// the network layer with the defense family from Apthorpe et al.
// (arXiv:1708.05044): constant-rate padding, stochastic cover traffic,
// decoy device personalities, and VPN-style tunnel aggregation.
//
// Mirrors the `core::Defense` shape (apply(input, intensity, rng)):
// intensity 0 is a bitwise passthrough, 1 is the strongest setting, and
// every defense is deterministic for a given (input, intensity, Rng) —
// cover packets included — so arena cells can be re-scored bit-for-bit
// from a shard seed at any `PMIOT_THREADS`.
#pragma once

#include <memory>
#include <span>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/device.h"
#include "net/packet.h"

namespace pmiot::net {

/// The utility bill a defense runs up on one home.
struct ShapingBill {
  double original_bytes = 0.0;  ///< sum of input packet sizes
  double added_bytes = 0.0;     ///< shaped total minus original total
  double added_latency_s = 0.0;  ///< total queueing delay over real packets
  std::size_t delayed_packets = 0;  ///< real packets that were held back

  /// Mean queueing delay over the packets that were actually delayed.
  double mean_added_latency_s() const {
    return delayed_packets == 0
               ? 0.0
               : added_latency_s / static_cast<double>(delayed_packets);
  }
  /// Bandwidth overhead as a fraction of the original bytes.
  double added_bytes_fraction() const {
    return original_bytes <= 0.0 ? 0.0 : added_bytes / original_bytes;
  }
};

/// A reshaped capture plus the utility bill the defense ran up.
// pmiot: sensitive — shaped or not, this is still a packet capture; the
// whole point of the arena is that reshaped metadata can leak.
struct ShapedCapture : ShapingBill {
  std::vector<Packet> packets;  ///< time-sorted shaped capture
};

/// The roster slot the WAN observer attributes `p` to: -1 for LAN–LAN
/// chatter (it never crosses the uplink), else the slot of its source,
/// else the slot of its destination (-1 when neither is on the roster).
/// A packet it sees has at most one LAN endpoint, so this is that
/// endpoint's device.
inline int wan_slot(const DeviceSlots& slots, const Packet& p) noexcept {
  if (is_lan(p.src_ip) && is_lan(p.dst_ip)) return -1;
  const int src = slots[p.src_ip];
  return src >= 0 ? src : slots[p.dst_ip];
}

/// A home checked and routed once for shaping: the input checks every
/// defense makes above θ = 0, and each roster device's WAN stream — the
/// packets `wan_slot` gives it, in time order.
// pmiot: sensitive — per-device packet streams of a home.
class RoutedHome {
 public:
  /// From per-device streams (`simulate_home_streams`), dropping LAN–LAN
  /// packets in place. Throws InvalidArgument unless `duration_s` is
  /// positive and finite, the roster's addresses are distinct LAN
  /// addresses, and each device has one time-sorted stream (NaN counts as
  /// unsorted) with the device at one end of every packet.
  RoutedHome(DeviceStreams home, double duration_s);
  /// From a time-sorted capture, split by `wan_slot`; the same checks.
  RoutedHome(const HomeNetwork& home, double duration_s);

  /// The roster and each roster device's WAN stream.
  const DeviceStreams& home() const noexcept { return home_; }
  double duration_s() const noexcept { return duration_s_; }
  const DeviceSlots& slots() const noexcept { return slots_; }
  /// Roster device `d`'s WAN stream, in time order.
  std::span<const Packet> stream(std::size_t d) const {
    return home_.streams[d];
  }
  /// Packets across every device's stream.
  std::size_t stream_packets() const noexcept { return stream_packets_; }
  /// Packets in the home's capture, LAN–LAN chatter included.
  std::size_t capture_size() const noexcept { return capture_size_; }
  /// Sum of every capture packet's size.
  double original_bytes() const noexcept { return original_bytes_; }

 private:
  DeviceStreams home_;
  double duration_s_;
  DeviceSlots slots_;
  std::size_t stream_packets_ = 0, capture_size_ = 0;
  double original_bytes_ = 0.0;
};

/// What a defense does to one roster device's WAN stream.
// pmiot: sensitive — a device's reshaped packets, as leaky as a capture.
struct DeviceEmission {
  enum class Raw : std::uint8_t {
    kKept,      ///< the raw stream stays, and `packets` are added to it
    kReplaced,  ///< `packets` are the device's whole new stream
    kDropped,   ///< the device leaves the WAN view: `packets` take its raw
                ///< packets' places in the capture, one for one, and
                ///< `wan_slot` gives none of them to a roster device
  };
  Raw raw = Raw::kKept;
  /// Time-sorted; tied packets in the defense's emission order. Each one
  /// is the device's by `wan_slot` or nobody's (LAN–LAN chatter).
  std::vector<Packet> packets;
};

/// A defense's output on a home, device by device, with its bill.
struct Emission : ShapingBill {
  std::vector<DeviceEmission> devices;  ///< roster order
};

/// The number of packets in the capture `apply` assembles from
/// `emission` on `home`.
std::size_t shaped_size(const RoutedHome& home, const Emission& emission);

/// Interface every traffic defense implements; the network-layer mirror of
/// `core::Defense`. Contract:
///   * intensity is clamped to [0, 1] by callers; 0 MUST return the home's
///     packets bitwise unchanged with a zero bill, and checks nothing;
///   * above 0 the input must pass `RoutedHome`'s checks. Anything else
///     throws InvalidArgument before any shaping, as does a constant-rate
///     intensity above 1;
///   * a defense shapes device by device (`emit`), and `apply` assembles
///     the capture from that emission: the capture's packets that stay
///     (kept devices' and nobody's, with dropped devices' replacements in
///     place), then each device's added or new stream in roster order,
///     sorted stably by time (DESIGN.md §18). So output order equals
///     `sort_by_time` of the defense's emission sequence (passed-through
///     packets first, then generated ones, so ties keep emission order);
///   * all randomness comes from `rng`, drawn device after device in
///     roster order, so one (home, intensity, seed) triple fully
///     determines the output.
class TrafficDefense {
 public:
  virtual ~TrafficDefense() = default;
  virtual std::string name() const = 0;
  /// Shapes each roster device's WAN stream over [0, duration_s) at
  /// intensity > 0 (θ = 0 is the caller's passthrough).
  virtual Emission emit(const RoutedHome& home, double intensity,
                        Rng& rng) const = 0;
  /// Reshapes the home's capture over [0, duration_s): `emit` on the
  /// routed home, assembled into one time-sorted capture.
  ShapedCapture apply(const HomeNetwork& home, double duration_s,
                      double intensity, Rng& rng) const;
};

/// Pad-to-schedule link shaping at the WAN uplink (1708.05044 §5.3's
/// "traffic shaping ... independent link padding"): each device/direction
/// emits on a fixed slot schedule, real packets ride the slots FIFO (late
/// slots cost latency), empty slots carry cover packets to the device's
/// dominant cloud peer, and all wire sizes are quantized. Intensity moves
/// the slot period from the device's own mean inter-arrival time toward a
/// common 1 s cadence and the size quantum from 1 byte toward the MTU, so
/// at 1.0 every device looks like the same metronome of 1400-byte cells.
/// Deliberate weakness kept from the paper it is tested against
/// (arXiv:2406.10358): the FIFO queue is bounded, and burst overflow is
/// flushed at real timestamps — the residual signal the adaptive
/// attacker's recovery features key on. LAN traffic passes through
/// untouched (the shaper sits on the uplink).
class ConstantRatePadding final : public TrafficDefense {
 public:
  std::string name() const override { return "constant-rate"; }
  Emission emit(const RoutedHome& home, double intensity,
                Rng& rng) const override;
};

/// Independent cover traffic: superimposes fake request/response exchanges
/// with exponential gaps (rate grows with intensity) to random other
/// vendors' cloud blocks, widening every marginal the fingerprint features
/// measure without touching real packets (zero latency cost, bytes only).
class StochasticCoverTraffic final : public TrafficDefense {
 public:
  std::string name() const override { return "cover"; }
  Emission emit(const RoutedHome& home, double intensity,
                Rng& rng) const override;
};

/// Decoy personalities: every device also plays a second, different device
/// class from the same address (a camera moonlighting as a thermostat),
/// generated by the real behaviour models. Intensity is the fraction of
/// the decoy's packets that actually air.
class DecoyFlows final : public TrafficDefense {
 public:
  std::string name() const override { return "decoy"; }
  Emission emit(const RoutedHome& home, double intensity,
                Rng& rng) const override;
};

/// VPN-style aggregation (1708.05044 §5.2): tunneled devices' WAN packets
/// are rewritten to one router<->concentrator UDP 4500 flow with
/// ESP-padded sizes, collapsing per-device 5-tuples into a single tunnel.
/// Intensity is the fraction of the roster behind the tunnel (first
/// ceil(intensity * N) devices in roster order). Timing survives — the
/// classic VPN weakness the adaptive attacker exploits. The tunnel's LAN
/// end is the router, so above θ = 0 a roster device at the router's
/// address is rejected (it would be credited with the tunnel's traffic).
class VpnAggregation final : public TrafficDefense {
 public:
  std::string name() const override { return "vpn"; }
  Emission emit(const RoutedHome& home, double intensity,
                Rng& rng) const override;
};

/// Names accepted by `make_traffic_defense`, in registry order.
const std::vector<std::string>& traffic_defense_names();

/// Builds a defense by registry name ("constant-rate", "cover", "decoy",
/// "vpn"). Throws InvalidArgument for unknown names.
std::unique_ptr<TrafficDefense> make_traffic_defense(const std::string& name);

/// The WAN observer's view of a capture: only packets with at least one
/// non-LAN endpoint (what an ISP-side fingerprinter can see; LAN-only
/// chatter never crosses the uplink). The arena routes by `wan_slot`,
/// which applies the same rule; this copy serves the benches and tests.
std::vector<Packet> wan_view(std::span<const Packet> packets);

}  // namespace pmiot::net
