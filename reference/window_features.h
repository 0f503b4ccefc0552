// Per-window rescan feature extraction: the readable reference the
// streaming `net::WindowAccumulator` is held to, bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/features.h"
#include "net/packet.h"

namespace pmiot::reference {

/// Computes the `net::feature_names()` vector for one device (identified by
/// its LAN IP) over packets within [t0, t1) by rescanning `packets`, which
/// may contain other devices' traffic. All zeros if the device was silent.
/// `router_ip` is the gateway's own address (see `net::kDefaultRouterIp`).
std::vector<double> extract_window_features(
    std::span<const net::Packet> packets, std::uint32_t device_ip, double t0,
    double t1, std::uint32_t router_ip = net::kDefaultRouterIp);

}  // namespace pmiot::reference
