// Fleet-scale gateway: one process simulating and policing thousands of
// home IoT LANs (the paper's §IV gateway agenda run at deployment scale
// rather than one LAN per process).
//
// A fleet pass (`FleetGateway::process_fleet`) is one parallel loop over
// homes, and each home is one fused shard:
//   1. Emission: the home is drawn from `par::shard_seed(base_seed, home)`
//      into per-device streams (`emit_home_into`): each device's own
//      packets, lifecycle-filtered and time-sorted.
//   2. Observation (`observe_home`): each device's `WindowAccumulator` is
//      fed that device's stream merged with the few packets other devices
//      send it (hub polls, scanner probes), and one pass over the streams
//      gives the per-device policy summaries (`net::PolicyCounts`).
//   3. Classification: the home's window rows go through one
//      `ml::Classifier::predict_all` call, inline in the shard.
//   4. Replay: the quarantine state machine (`net::SmartGateway::replay`)
//      writes the home's report into its slot.
// No home-wide capture is built and nothing outlives the shard but the
// home's report. `make_home_into` still builds the merged capture from the
// same per-device streams, for the serial oracle and the tests.
//
// Determinism contract: every per-home result depends only on (options,
// home index). A device's merged stream is exactly the time-sorted
// capture restricted to that device: ties go by timestamp, then emitting
// device index, then emission order, which is what a stable sort of the
// devices' concatenated emissions gives. `predict_all` is contractually
// identical to per-row `predict`. A fleet report is therefore bitwise
// identical to running `SmartGateway::process` over each home's capture
// serially (`reference::run_fleet_serial`, the oracle the self-check bench
// and soak test compare against) and invariant across PMIOT_THREADS.
//
// Churn model: each device is registered with the gateway for the whole
// horizon but only emits traffic inside its [join_s, leave_s) lifecycle —
// late joiners and mid-horizon departures, so short per-device captures and
// silent windows are routine, not errors. A home's (at most one) infected
// device keeps the full lifetime so compromises stay observable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "net/anomaly.h"
#include "net/device.h"
#include "net/gateway.h"
#include "net/packet.h"
#include "net/window_accumulator.h"

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

/// One home as per-device streams: the roster, and for each device the
/// packets it emits (to the cloud, to the router and to other devices),
/// lifecycle-filtered and sorted by `net::sort_by_time`. Reused from home
/// to home: only the first `devices.size()` streams are the current
/// home's. Device `d` has address 10.0.0.(10 + d), so the roster is in the
/// gateway's (ascending address) order.
// pmiot: sensitive — every device's packets.
struct HomeStreams {
  std::vector<DeviceLifecycle> devices;
  std::size_t infected = kNoInfectedDevice;  ///< index into devices
  std::vector<std::vector<net::Packet>> streams;
  net::SortScratch sort;
};

/// Draws home `home` into `out`: the device count, the infection, then for
/// each device its type, profile, churn and emission, all from one
/// `Rng(par::shard_seed(options.base_seed, home))`. Depends only on
/// (options, home); warm buffers are reused without allocating.
void emit_home_into(const FleetOptions& options, std::size_t home,
                    HomeStreams& out);

/// Deterministic per-home world generation: depends only on (options,
/// home). The serial oracle calls this, so it polices exactly the streams
/// the fleet pass observes.
HomeCapture make_home(const FleetOptions& options, std::size_t home);

/// Reusable scratch for `make_home_into`: the home's per-device streams.
struct HomeArena {
  HomeStreams streams;
};

/// Arena variant of `make_home`: regenerates home `home` into `out`,
/// reusing `out`'s and `arena`'s capacity. The capture is the devices'
/// streams merged into time order, ties to the lower device index, then
/// emission order. After a warm-up pass over the same homes, steady-state
/// calls allocate nothing.
void make_home_into(const FleetOptions& options, std::size_t home,
                    HomeCapture& out, HomeArena& arena);

/// What the fused shard knows of one home before classification: each
/// registered device's window rows and policy summary, in roster order.
/// Reused from home to home: only the first `devices` entries of `rows`
/// and `counts` are the current home's.
struct HomeObservation {
  std::size_t devices = 0;
  std::uint64_t packets = 0;  ///< packets every device emitted
  std::vector<net::DeviceRows> rows;
  std::vector<net::PolicyCounts> counts;

  // Scratch: the packets each device's peers emit to it.
  net::PeerQueues peers;
  std::optional<net::WindowAccumulator> accumulator;
};

/// Windows and tallies every device of `home` from the streams alone, as
/// `SmartGateway::extract_rows` and `policy_counts` would from the merged
/// capture (a gateway with `gateway` options and the roster registered).
/// Each device's accumulator gets its own stream merged with the packets
/// other devices emit to it, in (timestamp, emitting device, emission)
/// order. Throws InvalidArgument unless the roster's addresses are LAN
/// addresses, not the router's, and ascending, and every packet of a
/// device's stream has that device's address at one end; a stream out of
/// time order throws too, as `extract_rows` does.
void observe_home(const net::GatewayOptions& gateway, double duration_s,
                  const HomeStreams& home, HomeObservation& out);

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

  /// The fused fleet pass described above. Emits the `fleet.homes`,
  /// `fleet.packets` and `fleet.quarantines` counters and one timer per
  /// shard stage.
  FleetReport process_fleet() const;

 private:
  const ml::Classifier& classifier_;
  const net::AnomalyDetector& detector_;
  FleetOptions options_;
};

}  // namespace pmiot::fleet
