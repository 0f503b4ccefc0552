// Defense-vs-attack arena for traffic reshaping (paper §III-E at the
// network layer).
//
// Crosses every `TrafficDefense` with an intensity grid and scores each
// cell against a panel of supervised fingerprint attacks — including
// *adaptive* ones that retrain the device classifier on shaped traffic,
// the arXiv:2406.10358 observation that naive reshaping evaluations
// overstate protection. The knob readout per cell:
//   privacy  = device-fingerprint MCC under the strongest attacker in
//              the panel (lower = more private);
//   utility  = bandwidth overhead (added bytes fraction) and mean added
//              queueing latency.
//
// Determinism contract: every cell's randomness comes from a
// `par::shard_seed` chain keyed by (seed, cell index) — never from
// execution order — and each task writes only its own result slot, so
// `run_arena` is bitwise identical at any `PMIOT_THREADS` — including a
// width-1 pool, the serial reference the bench self-check compares against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/features.h"
#include "net/packet.h"
#include "net/shaping.h"

namespace pmiot::net {

/// One supervised fingerprint attack specification.
struct SupervisedFingerprintAttack {
  std::string name;
  enum class Backend { kForest, kKnn } backend = Backend::kForest;
  /// Retrains on the defense's shaped training capture (the 2406.10358
  /// adaptive adversary); non-adaptive attacks are pre-trained on raw
  /// traffic and never see shaped data before test time.
  bool adaptive = false;
  /// Appends the burst/periodicity recovery features to the base vector.
  bool recovery = false;
};

/// The attack panel, registry order: "naive-forest", "adaptive-forest",
/// "adaptive-knn", "adaptive-forest+recovery".
const std::vector<SupervisedFingerprintAttack>& fingerprint_attacks();

/// Looks up a panel attack by name; throws InvalidArgument when unknown.
SupervisedFingerprintAttack make_fingerprint_attack(const std::string& name);

/// Names of the shaping-recovery features, in order. Appended after the
/// base `feature_names()` vector when an attack sets `recovery`.
const std::vector<std::string>& recovery_feature_names();

/// Recovery features for one device over [t0, t1): modal inter-arrival
/// fraction and sub-modal (burst) fraction at 10 ms resolution, max 1 s
/// packet rate, and modal-size fraction — the residual timing/size
/// structure constant-rate shaping leaks through its bounded queue.
/// `packets` may hold other devices' traffic but must be in timestamp order
/// (`sort_by_time`); out-of-order input throws InvalidArgument ("packets
/// must arrive in timestamp order"), as `WindowAccumulator` does.
std::vector<double> extract_recovery_features(std::span<const Packet> packets,
                                              std::uint32_t device_ip,
                                              double t0, double t1);

/// The recovery features of every full window [k·w, k·w + w) in one pass —
/// the streaming path `run_arena` computes its recovery rows with, exposed
/// for parity checks against the per-window rescan. One row per window
/// whose end lies within `duration_s` (idle windows all-zero), tagged like
/// `windowed_features`' rows. Same ordering precondition as
/// `extract_recovery_features`.
std::vector<WindowRow> windowed_recovery_features(
    std::span<const Packet> packets, std::uint32_t device_ip,
    double duration_s, double window_s);

/// One home's windows as `run_arena` scores them, device by device in
/// roster order: a row per full window [k·w, k·w + w) holding the
/// `feature_names()` vector followed by the `recovery_feature_names()`
/// vector (idle windows all zero), tagged like `windowed_features`' rows.
/// With a null `emission`, the raw home; otherwise the home as that
/// emission of a defense at θ > 0 reshapes it, windowed straight from each
/// device's emission with no capture assembled. Exposed for parity checks
/// against `apply` → `wan_view` → `windowed_features` /
/// `windowed_recovery_features`.
std::vector<std::vector<WindowRow>> arena_windows(const RoutedHome& home,
                                                  const Emission* emission,
                                                  double window_s);

struct ArenaOptions {
  int train_instances_per_type = 2;  ///< attacker's lab home
  int test_instances_per_type = 2;   ///< deployed home under observation
  double duration_s = 3600.0;
  double window_s = 300.0;
  std::vector<std::string> defenses = traffic_defense_names();
  std::vector<double> intensities = {0.0, 0.35, 0.7, 1.0};
  std::vector<std::string> attacks;  ///< empty = full panel
  std::uint64_t seed = 2018;
};

/// One attack's showing in one cell.
struct AttackScore {
  std::string attack;
  double mcc = 0.0;       ///< multiclass MCC incl. the "silent" class
  double accuracy = 0.0;
};

/// One (defense, intensity) cell of the grid.
struct ArenaCell {
  std::string defense;
  double intensity = 0.0;
  double added_bytes_fraction = 0.0;  ///< test-home bandwidth overhead
  double mean_added_latency_s = 0.0;  ///< test-home mean queueing delay
  double naive_mcc = 0.0;    ///< strongest non-adaptive attack
  double privacy_mcc = 0.0;  ///< strongest attack overall (the §III-E
                             ///< privacy reading: lower = more private)
  std::vector<AttackScore> attacks;
};

struct ArenaResult {
  std::vector<ArenaCell> cells;  ///< defense-major, intensity-minor order
};

/// Largest total the arena's window tables may need, in bytes: each home's
/// raw table plus one per θ > 0 cell, each `devices × windows × (row
/// doubles × 8 + 1)` — the base and recovery features plus a silent flag
/// per window. A grid over this bound (4 GiB) is rejected with
/// InvalidArgument before anything is simulated; it is a fixed limit, not
/// a config key.
inline constexpr std::uint64_t kMaxTableBytes = std::uint64_t{1} << 32;

/// Throws InvalidArgument unless the grid is non-empty, every defense name
/// is known, every intensity lies in [0, 1], both homes hold >= 1 instance
/// per device type, the finite duration spans at least one full window,
/// and the window tables fit `kMaxTableBytes`.
void validate(const ArenaOptions& options);

/// Runs the full grid over the shared `par` pool in three batches of
/// fine-grained tasks: the two homes, each simulated and routed into its
/// devices' WAN streams; per θ > 0 cell each home shaped and windowed
/// device by device from the defense's emission, plus each (home, device)'s
/// raw windows (θ = 0 cells read the raw tables); then each pre-trained
/// attack's one shared fit, which scores every cell, and one fit-and-score
/// task per (cell, adaptive attack). Nested parallel loops (forest fits,
/// batched prediction) run inline inside a task. Validates `options` first.
ArenaResult run_arena(const ArenaOptions& options);

/// Empty string when equal, else a human-readable first divergence
/// (bitwise field comparison), for self-check diagnostics.
std::string describe_divergence(const ArenaResult& a, const ArenaResult& b);

}  // namespace pmiot::net
