// Traffic features for device fingerprinting and anomaly detection.
//
// The paper's §IV calls for classifying devices "based on their typical
// traffic patterns ... frequency of transmission, the amount of data they
// transmit, and where those transmissions are directed". The feature vector
// captures exactly those three axes per device per observation window.
//
// Extraction is one streaming pass over the capture for every window
// (`WindowAccumulator`, window_accumulator.h). The readable per-window
// rescan it is tested against lives in the reference library
// (reference/window_features.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"

namespace pmiot::net {

/// Names of the window features, in vector order.
const std::vector<std::string>& feature_names();

/// Positions of the features that policy code reads by index (the gateway's
/// evidence gate sums the two packet rates). Each constant is validated
/// against `feature_names()` by `check_feature_layout`, so reordering the
/// feature vector cannot silently misroute the policy inputs.
inline constexpr std::size_t kFeaturePktRateUp = 0;    ///< "pkt_rate_up"
inline constexpr std::size_t kFeaturePktRateDown = 1;  ///< "pkt_rate_down"

/// Asserts that the kFeature* indices above still name the features they
/// claim to (throws InternalError on drift). Called at gateway startup.
void check_feature_layout();

/// The router identity the extractors assume when the caller does not pass
/// one (10.0.0.1, the default `GatewayOptions::router_ip`). Kept as a named
/// constant so the default-path output is pinned, not incidental. Traffic
/// to/from the router is neither a LAN peer (`lan_fraction`) nor a remote
/// (`distinct_remotes`); deployments with a non-default router must thread
/// their address through, or the router is miscounted as a LAN peer.
inline constexpr std::uint32_t kDefaultRouterIp = (10u << 24) | 1u;

/// One window's feature vector, tagged with its wall-clock window number
/// (window k covers [k * window_s, (k+1) * window_s)), so downstream code
/// can align rows with time even when idle windows are omitted.
struct WindowRow {
  std::size_t window_index = 0;
  std::vector<double> features;
};

/// Splits a capture into consecutive `window_s`-second windows and extracts
/// one feature row per window for the device, in a single pass over the
/// packets (which must be sorted by timestamp — see `sort_by_time`).
/// By default windows with no device traffic are omitted; their indices are
/// still consumed, so `window_index` always reflects wall-clock position.
/// With `keep_idle_windows` every window is returned (idle ones all-zero).
std::vector<WindowRow> windowed_features(std::span<const Packet> packets,
                                         std::uint32_t device_ip,
                                         double duration_s, double window_s,
                                         bool keep_idle_windows = false,
                                         std::uint32_t router_ip =
                                             kDefaultRouterIp);

}  // namespace pmiot::net
