// The "smart" gateway router the paper's §IV proposes.
//
// Three duties, straight from the text:
//  1. identify devices from their traffic patterns (fingerprint classifier),
//  2. watch for suspicious deviations from each device's typical behaviour
//     (anomaly detector over observation windows),
//  3. enforce least privilege — IoT devices are isolated from other local
//     devices by default, and a device that stays anomalous is quarantined
//     (all traffic dropped except UDP DNS, so remediation is still possible).
//
// Policy contract (pinned by the GatewayPolicy tests):
//  * Quarantine drop takes precedence: once a device is quarantined, every
//    packet it sends at or after `quarantined_at_s` is dropped and counted
//    in `quarantine_packets_dropped` — except UDP packets to port 53, the
//    remediation carve-out. TCP to port 53 (zone transfers, DNS tunnels) is
//    NOT exempt.
//  * Lateral blocking applies to whatever the quarantine stage let through:
//    a packet to a LAN destination that is neither `GatewayOptions::
//    router_ip` nor a registered peer counts in `lateral_packets_blocked`.
//  * The two counters are mutually exclusive — no packet is counted twice.
//
// `process` is the composition of three stages that are also public so the
// fleet layer (src/fleet) can batch the classification step across homes:
// `extract_rows` (windowed features per device), `policy_counts` (compact
// per-device accounting summaries, no packet retention), and `replay` (the
// scoring/quarantine state machine plus counter derivation).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "net/anomaly.h"
#include "net/device.h"
#include "net/features.h"
#include "net/packet.h"

namespace pmiot::net {

enum class Zone { kIot, kQuarantined };
const char* to_string(Zone zone);

struct GatewayOptions {
  double window_s = 600.0;
  double anomaly_threshold = 6.0;
  /// Consecutive anomalous windows before quarantine (debounce).
  int windows_to_quarantine = 2;
  /// Windows with fewer packets than this carry too little evidence to
  /// judge (sparse devices like door locks send a handful of heartbeats);
  /// they are classified but not anomaly-scored. Every attack behaviour
  /// floods far past this.
  int min_packets_to_score = 30;
  /// The router's own LAN address. Traffic to the router (DNS, DHCP-style
  /// chatter) is never "lateral movement"; everything else on the LAN that
  /// is not a registered peer is.
  std::uint32_t router_ip = make_ip(10, 0, 0, 1);
};

/// One log line from the gateway's decision loop.
struct GatewayEvent {
  double timestamp_s = 0.0;
  std::string device;
  std::string message;
};

/// Per-device outcome after processing a capture.
struct DeviceVerdict {
  std::string device;
  int predicted_type = -1;        ///< majority vote over windows
  Zone final_zone = Zone::kIot;
  double quarantined_at_s = -1.0; ///< <0 if never quarantined
  double max_anomaly_score = 0.0;
};

struct GatewayReport {
  std::vector<GatewayEvent> events;
  std::vector<DeviceVerdict> verdicts;  ///< one per registered device
  std::uint64_t lateral_packets_blocked = 0;
  std::uint64_t quarantine_packets_dropped = 0;
};

/// Windowed feature rows for one registered device (stage-1 output).
struct DeviceRows {
  std::uint32_t ip = 0;
  std::string name;
  std::vector<WindowRow> rows;  ///< idle windows omitted, window_index kept
};

/// Compact per-device policy-accounting summary: one pass over a capture,
/// enough to reproduce the lateral/quarantine counters for *any* quarantine
/// decision without retaining the packets. Quarantine can only start at a
/// window boundary k * window_s (k in [1, windows]), so suffix counts keyed
/// by boundary index cover every reachable outcome exactly.
struct PolicyCounts {
  /// Packets from this device (drives the packets-policed metric).
  std::uint64_t policed = 0;
  /// Lateral-eligible packets: LAN destination, not the router, not a
  /// registered peer.
  std::uint64_t lateral_total = 0;
  /// [k] = packets with timestamp >= k * window_s that are not exempt
  /// (exempt = UDP to port 53). Size windows + 1.
  std::vector<std::uint64_t> nonexempt_from;
  /// [k] = of the above, those that are also lateral-eligible.
  std::vector<std::uint64_t> lateral_nonexempt_from;
};

/// Offline gateway evaluation: replays a time-ordered capture, windows it,
/// classifies and scores each device, and applies the isolation policy.
class SmartGateway {
 public:
  /// Both models must be trained (classifier on fingerprint labels,
  /// detector on clean windows). The gateway borrows them by reference;
  /// they must outlive it.
  SmartGateway(const ml::Classifier& classifier,
               const AnomalyDetector& detector, GatewayOptions options);

  /// Registers a device the gateway will police.
  void register_device(std::uint32_t ip, std::string name);

  /// Processes a capture of `duration_s` seconds. A capture shorter than
  /// one window yields an empty report (no events, default per-device
  /// verdicts) with lateral accounting still applied — routine under fleet
  /// churn, never an error.
  GatewayReport process(std::span<const Packet> packets,
                        double duration_s) const;

  /// Number of full observation windows in a capture of `duration_s`.
  int window_count(double duration_s) const;

  // --- staged API (used by process() and by pmiot::fleet) -----------------

  /// Stage 1: windowed feature rows per registered device, in registration
  /// (ascending IP) order — the order verdicts are reported in. One pass
  /// over the capture routes each packet to the accumulators of its
  /// registered endpoints. Throws InvalidArgument on a capture that is not
  /// in timestamp order, whichever devices the packet involves.
  std::vector<DeviceRows> extract_rows(std::span<const Packet> packets,
                                       double duration_s) const;

  /// Stage 2: per-device policy summaries, aligned with `extract_rows`
  /// output. One pass over the capture; nothing is retained per packet.
  std::vector<PolicyCounts> policy_counts(std::span<const Packet> packets,
                                          double duration_s) const;

  /// Stage 3: replays the scoring/quarantine state machine over the rows
  /// with externally supplied predictions (`predictions[i][r]` is the
  /// predicted type of `devices[i].rows[r]`) and derives the policy
  /// counters from the summaries. `process` == stages 1+2 with per-row
  /// `Classifier::predict`, then this; the fleet path substitutes one
  /// batched `predict_all` across homes — `predict_all` is contractually
  /// identical to per-row `predict`, so the reports match bitwise.
  GatewayReport replay(std::span<const DeviceRows> devices,
                       std::span<const std::vector<int>> predictions,
                       std::span<const PolicyCounts> counts,
                       double duration_s) const;

 private:
  /// Roster position of each registered device, by the last octet of its
  /// address (`register_device` admits LAN addresses only, so the octet
  /// identifies a device); -1 where none is registered.
  using DeviceSlots = std::array<std::int16_t, 256>;
  DeviceSlots device_slots() const;

  const ml::Classifier& classifier_;
  const AnomalyDetector& detector_;
  GatewayOptions options_;
  std::map<std::uint32_t, std::string> devices_;
};

}  // namespace pmiot::net
