// Per-window rescan of the arena's burst/periodicity recovery features: the
// readable reference the streaming recovery path in `net::run_arena` (and
// `net::extract_recovery_features`) is held to, bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"

namespace pmiot::reference {

/// Computes the `net::recovery_feature_names()` vector for one device over
/// packets within [t0, t1) by rescanning `packets`, which may contain other
/// devices' traffic and need not be sorted. All zeros if the device was
/// silent.
std::vector<double> extract_recovery_features(
    std::span<const net::Packet> packets, std::uint32_t device_ip, double t0,
    double t1);

}  // namespace pmiot::reference
