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
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/device.h"
#include "net/packet.h"

namespace pmiot::net {

/// A reshaped capture plus the utility bill the defense ran up.
// pmiot: sensitive — shaped or not, this is still a packet capture; the
// whole point of the arena is that reshaped metadata can leak.
struct ShapedCapture {
  std::vector<Packet> packets;  ///< time-sorted shaped capture
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

/// Interface every traffic defense implements; the network-layer mirror of
/// `core::Defense`. Contract:
///   * intensity is clamped to [0, 1] by callers; 0 MUST return the home's
///     packets bitwise unchanged with a zero bill, and checks nothing;
///   * above 0 the input must be a time-sorted capture (`sort_by_time`;
///     NaN timestamps count as unsorted) of a roster of distinct LAN
///     addresses, over a finite `duration_s`. Anything else throws
///     InvalidArgument before any shaping, as does a constant-rate
///     intensity above 1;
///   * output order equals `sort_by_time` of the defense's emission
///     sequence (passed-through packets first, then generated ones, so
///     ties keep emission order). No defense sorts the whole capture:
///     constant-rate emits each lane in time order, cover and decoy append
///     a few sorted runs per device, and `merge_sorted_tail` merges either
///     into the passed-through packets (DESIGN.md §18); vpn keeps the
///     input's order;
///   * all randomness comes from `rng`, so one (home, intensity, seed)
///     triple fully determines the output.
class TrafficDefense {
 public:
  virtual ~TrafficDefense() = default;
  virtual std::string name() const = 0;
  /// Reshapes the home's capture over [0, duration_s).
  virtual ShapedCapture apply(const HomeNetwork& home, double duration_s,
                              double intensity, Rng& rng) const = 0;
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
  ShapedCapture apply(const HomeNetwork& home, double duration_s,
                      double intensity, Rng& rng) const override;
};

/// Independent cover traffic: superimposes fake request/response exchanges
/// with exponential gaps (rate grows with intensity) to random other
/// vendors' cloud blocks, widening every marginal the fingerprint features
/// measure without touching real packets (zero latency cost, bytes only).
class StochasticCoverTraffic final : public TrafficDefense {
 public:
  std::string name() const override { return "cover"; }
  ShapedCapture apply(const HomeNetwork& home, double duration_s,
                      double intensity, Rng& rng) const override;
};

/// Decoy personalities: every device also plays a second, different device
/// class from the same address (a camera moonlighting as a thermostat),
/// generated by the real behaviour models. Intensity is the fraction of
/// the decoy's packets that actually air.
class DecoyFlows final : public TrafficDefense {
 public:
  std::string name() const override { return "decoy"; }
  ShapedCapture apply(const HomeNetwork& home, double duration_s,
                      double intensity, Rng& rng) const override;
};

/// VPN-style aggregation (1708.05044 §5.2): tunneled devices' WAN packets
/// are rewritten to one router<->concentrator UDP 4500 flow with
/// ESP-padded sizes, collapsing per-device 5-tuples into a single tunnel.
/// Intensity is the fraction of the roster behind the tunnel (first
/// ceil(intensity * N) devices in roster order). Timing survives — the
/// classic VPN weakness the adaptive attacker exploits.
class VpnAggregation final : public TrafficDefense {
 public:
  std::string name() const override { return "vpn"; }
  ShapedCapture apply(const HomeNetwork& home, double duration_s,
                      double intensity, Rng& rng) const override;
};

/// Names accepted by `make_traffic_defense`, in registry order.
const std::vector<std::string>& traffic_defense_names();

/// Builds a defense by registry name ("constant-rate", "cover", "decoy",
/// "vpn"). Throws InvalidArgument for unknown names.
std::unique_ptr<TrafficDefense> make_traffic_defense(const std::string& name);

/// The WAN observer's view of a capture: only packets with at least one
/// non-LAN endpoint (what an ISP-side fingerprinter can see; LAN-only
/// chatter never crosses the uplink). The arena applies the same rule
/// inline; this copy serves the benches and tests.
std::vector<Packet> wan_view(std::span<const Packet> packets);

}  // namespace pmiot::net
