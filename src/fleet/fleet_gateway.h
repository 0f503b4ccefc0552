// Fleet-scale gateway: one process simulating and policing thousands of
// home IoT LANs (ROADMAP item 1 — the paper's §IV gateway agenda run at
// deployment scale rather than one LAN per process).
//
// Shape of a fleet pass (`FleetGateway::process_fleet`):
//   1. Shard phase (parallel over homes): each home's capture is generated
//      on the fly from `par::shard_seed(base_seed, home)`, windowed into
//      per-device feature rows, and reduced to compact per-device policy
//      summaries (`net::PolicyCounts`). The packets are discarded inside
//      the shard — no global packet vector is ever materialized; what
//      survives is O(windows × devices) feature rows per home.
//   2. Batch phase (serial): every home's window rows are assembled into
//      one dataset, classified with a single columnar
//      `ml::Classifier::predict_all` call (which fans out internally),
//      and scattered back per home.
//   3. Replay phase (parallel over homes): the per-home quarantine state
//      machine (`net::SmartGateway::replay`) runs with the batched
//      predictions; results land in per-home slots.
//
// Determinism contract: every per-home result depends only on (options,
// home index) — captures are shard-seeded, results are slot-written, and
// `predict_all` is contractually identical to per-row `predict`. A fleet
// report is therefore bitwise identical to running `SmartGateway::process`
// over each home serially (`reference::run_fleet_serial`, the oracle the
// self-check bench and soak test compare against) and invariant across
// PMIOT_THREADS.
//
// Churn model: each device is registered with the gateway for the whole
// horizon but only emits traffic inside its [join_s, leave_s) lifecycle —
// late joiners and mid-horizon departures, so short per-device captures and
// silent windows are routine, not errors. A home's (at most one) infected
// device keeps the full lifetime so compromises stay observable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "net/anomaly.h"
#include "net/device.h"
#include "net/gateway.h"
#include "net/packet.h"

namespace pmiot::fleet {

/// Gateway policy defaults scaled for fleet horizons: 120 s windows so a
/// 10-minute horizon still spans several decision windows.
net::GatewayOptions fleet_gateway_defaults();

struct FleetOptions {
  std::size_t homes = 1000;
  double duration_s = 600.0;
  /// Devices per home, drawn uniformly in [min_devices, max_devices].
  int min_devices = 4;
  int max_devices = 8;
  std::uint64_t base_seed = 1;
  /// Fraction of homes whose (single) compromised device runs a scanner,
  /// DDoS bot, or exfiltrator starting 20–50 % into the horizon.
  double infected_fraction = 0.25;
  /// Churn: fraction of devices that join mid-horizon / leave early.
  double join_fraction = 0.25;
  double leave_fraction = 0.25;
  net::GatewayOptions gateway = fleet_gateway_defaults();
};

/// One device's lifecycle inside a home: registered for the whole horizon,
/// emitting traffic only inside [join_s, leave_s).
struct DeviceLifecycle {
  net::DeviceProfile profile;
  double join_s = 0.0;
  double leave_s = 0.0;
};

inline constexpr std::size_t kNoInfectedDevice = ~std::size_t{0};

/// One home's simulated world: device roster with lifecycles and the
/// merged, time-sorted capture.
// pmiot: sensitive — the full per-home capture, the rawest artifact the
// gateway handles.
struct HomeCapture {
  std::vector<DeviceLifecycle> devices;
  std::vector<net::Packet> packets;
  std::size_t infected = kNoInfectedDevice;  ///< index into devices
};

/// Deterministic per-home world generation: depends only on (options,
/// home). The fleet pass and the serial oracle both call this, so they
/// police identical captures.
HomeCapture make_home(const FleetOptions& options, std::size_t home);

/// Reusable scratch for `make_home_into`: the buffers of its one
/// capture-wide `net::sort_by_time`, so repeated home generation performs
/// no hidden allocations once capacities are warm.
struct HomeArena {
  net::SortScratch sort;
};

/// Arena variant of `make_home`: regenerates home `home` into `out`,
/// reusing `out`'s and `arena`'s capacity. Produces a capture bitwise
/// identical to `make_home` (same RNG stream, same packet order). After a
/// warm-up pass over the same homes, steady-state calls allocate nothing —
/// the contract `bench/fleet_gateway --self-check` asserts.
void make_home_into(const FleetOptions& options, std::size_t home,
                    HomeCapture& out, HomeArena& arena);

/// Per-home outcome inside a fleet report.
struct HomeOutcome {
  std::size_t devices = 0;
  std::uint64_t packets = 0;
  net::GatewayReport report;
};

struct FleetReport {
  std::vector<HomeOutcome> homes;  ///< index == home id
  std::uint64_t packets = 0;
  std::uint64_t windows_classified = 0;
  std::uint64_t quarantined_devices = 0;
  std::uint64_t lateral_packets_blocked = 0;
  std::uint64_t quarantine_packets_dropped = 0;
};

/// Empty when the two reports are identical (exact — doubles compared
/// bitwise-equal, events compared verbatim); otherwise a one-line
/// description of the first divergence, for self-check diagnostics.
std::string describe_divergence(const FleetReport& a, const FleetReport& b);

/// Simulates and monitors a population of homes in one process.
class FleetGateway {
 public:
  /// Models must be trained; borrowed by reference and must outlive the
  /// fleet gateway.
  FleetGateway(const ml::Classifier& classifier,
               const net::AnomalyDetector& detector, FleetOptions options);

  const FleetOptions& options() const noexcept { return options_; }

  /// The batched fleet pass described above. Emits `fleet.homes`,
  /// `fleet.packets`, and `fleet.quarantines` metrics.
  FleetReport process_fleet() const;

 private:
  const ml::Classifier& classifier_;
  const net::AnomalyDetector& detector_;
  FleetOptions options_;
};

}  // namespace pmiot::fleet
