// Network axis for the campaign layer: the traffic-reshaping arena
// (net/arena.h) packaged with the same config discipline as the energy
// campaign — parseable `key = value` grids, canonical serialization, an
// FNV-stamped hash, and a byte-stable frontier CSV. The config is
// `net::ArenaOptions` itself, validated by `net::validate`.
//
// Kept separate from `CampaignConfig` on purpose: that struct's canonical
// text is stamped into every existing checkpoint header, so growing it
// would orphan all prior checkpoints. The network grid gets its own config
// and artifact; `bench/net_defense_arena` is the consumer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "net/arena.h"

namespace pmiot::campaign {

/// Parses the `key = value` format (same grammar as the energy campaign:
/// '#' comments, comma lists, unknown keys throw) into arena options,
/// then validates them. Keys: defenses, attacks, intensities,
/// train_instances, test_instances, duration_s, window_s, seed.
net::ArenaOptions parse_net_config(const std::string& text);

/// Canonical serialization; parse_net_config(canonical_net_text(o)) == o.
std::string canonical_net_text(const net::ArenaOptions& options);

/// FNV-1a 64 over `canonical_net_text`, for artifact provenance stamps.
std::uint64_t net_config_hash(const net::ArenaOptions& options);

/// Writes the network frontier CSV: one row per (defense, intensity) cell
/// with the §III-E readout — utility columns (added bytes fraction, mean
/// added latency) and privacy columns (strongest naive / adaptive MCC,
/// then each panel attack's MCC in panel order). Round-trip float
/// formatting: equal results produce byte-identical files.
void write_net_frontier_csv(std::ostream& os, const net::ArenaOptions& options,
                            const net::ArenaResult& result);

}  // namespace pmiot::campaign
