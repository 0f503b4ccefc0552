// Fleet-scale gateway bench: one process simulating and policing a
// thousand-home deployment (src/fleet), self-checked against the per-home
// serial oracle before any timing claim.
//
// The fleet pass is one parallel loop over homes: each shard draws its
// home as per-device streams, windows and tallies every device from its
// own stream, classifies the home's windows with one `predict_all` and
// replays the quarantine state machine. The oracle builds each home's
// merged capture and runs `SmartGateway::process` on it, home by home. The
// two reports must be bitwise identical — same verdicts, same event log,
// same policy counters — at any PMIOT_THREADS setting.
//
// `--self-check` prints only deterministic lines (no timing), so CI can
// diff the output across PMIOT_THREADS ∈ {1, 4, 16}. `--homes N` scales
// the population (default 1000; the layer is sized for 1k–10k).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "alloc_probe.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "fleet/fleet_gateway.h"
#include "ml/random_forest.h"
#include "net/anomaly.h"
#include "net/fingerprint.h"
#include "obs/metrics.h"
#include "reference/fleet_oracle.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;
using bench::fail;

}  // namespace

int main(int argc, char** argv) {
  bool self_check_only = false;
  std::size_t homes = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check_only = true;
    } else if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: fleet_gateway [--self-check] [--homes N]\n";
      return EXIT_FAILURE;
    }
  }

  std::cout
      << "==============================================================\n"
         "Fleet-scale smart gateway (" << homes << " homes, one process)\n"
         "==============================================================\n\n";

  // Train the shared models once, on windows the same length as the fleet
  // gateway's (some features — flow counts, distinct peers — scale with
  // window duration, so the anomaly envelope must match).
  fleet::FleetOptions options;
  options.homes = homes;
  options.base_seed = 42;

  Rng rng(3);
  net::FingerprintOptions fingerprint;
  fingerprint.window_s = options.gateway.window_s;
  const auto data = net::build_fingerprint_dataset(fingerprint, rng);
  ml::RandomForest classifier;
  classifier.fit(data);
  net::AnomalyDetector detector;
  detector.fit(data);

  const fleet::FleetGateway fleet(classifier, detector, options);

  const auto f0 = Clock::now();
  const auto batched = fleet.process_fleet();
  const auto f1 = Clock::now();
  const auto s0 = Clock::now();
  const auto serial =
      reference::run_fleet_serial(classifier, detector, options);
  const auto s1 = Clock::now();

  // Self-check before any timing claims: the batched fleet pass must match
  // the per-home serial oracle bitwise.
  const auto divergence = fleet::describe_divergence(batched, serial);
  if (!divergence.empty()) {
    return fail("fleet pass diverges from serial oracle: ", divergence);
  }
  if (batched.quarantined_devices == 0) {
    std::cerr << "SUSPECT: no device quarantined across the whole fleet\n";
    return EXIT_FAILURE;
  }
  std::cout << "self-check OK: fleet pass == per-home serial oracle ("
            << batched.homes.size() << " homes, " << batched.packets
            << " packets, " << batched.windows_classified
            << " windows classified)\n"
            << "fleet outcome: " << batched.quarantined_devices
            << " devices quarantined, " << batched.lateral_packets_blocked
            << " lateral packets blocked, "
            << batched.quarantine_packets_dropped
            << " post-quarantine packets dropped\n";

  // Snapshot goes to stderr + METRICS_*.json only, so stdout stays bitwise
  // identical with metrics on and off (CI diffs it at several PMIOT_THREADS
  // settings). It covers the fleet pass and the oracle; the allocation
  // probe below runs after it, so its observation passes count nowhere.
  obs::emit_if_enabled("fleet_gateway");

  // Zero-allocation contract for the fused shard (src/fleet): warm one set
  // of per-device streams, one observation (its window accumulator, row
  // and policy buffers, merge queues) and one capture over a sample of
  // homes, then replay the same homes and assert the global allocation
  // counter did not move. Classification and replay, which build each
  // home's report, are outside the contract.
  {
    const std::size_t probe = std::min<std::size_t>(homes, 32);
    const auto& o = fleet.options();
    fleet::HomeStreams streams;
    fleet::HomeObservation seen;
    fleet::HomeCapture capture;
    fleet::HomeArena arena;
    const auto shard_pass = [&] {
      for (std::size_t h = 0; h < probe; ++h) {
        fleet::emit_home_into(o, h, streams);
        fleet::observe_home(o.gateway, o.duration_s, streams, seen);
        fleet::make_home_into(o, h, capture, arena);
      }
    };
    shard_pass();
    const std::uint64_t before = g_heap_allocations.load();
    shard_pass();
    const std::uint64_t steady = g_heap_allocations.load() - before;
    if (steady != 0) {
      return fail("steady-state shard phase allocated ", steady,
                  " time(s) replaying ", probe, " warm homes");
    }
    std::cout << "self-check OK: steady-state home capture allocated 0 times ("
              << probe << " warm homes replayed)\n";
  }

  if (self_check_only) return EXIT_SUCCESS;  // deterministic output only

  const double fleet_ms = ms_between(f0, f1);
  const double serial_ms = ms_between(s0, s1);
  const auto threads = static_cast<double>(par::thread_count());
  // Homes one core could police in real time: each home produced
  // `duration_s` of traffic, processed in fleet_ms across `threads` cores.
  const double homes_per_core = static_cast<double>(homes) *
                                fleet.options().duration_s / (fleet_ms / 1e3) /
                                threads;

  Table table({"pass", "time (s)", "packets/s", "homes/core (realtime)"});
  table.add_row()
      .cell("fleet (fused per-home shards)")
      .cell(fleet_ms / 1e3)
      .cell(static_cast<double>(batched.packets) / (fleet_ms / 1e3), 0)
      .cell(homes_per_core, 0);
  table.add_row()
      .cell("serial oracle (per-home process)")
      .cell(serial_ms / 1e3)
      .cell(static_cast<double>(serial.packets) / (serial_ms / 1e3), 0)
      .cell("-");
  table.print(std::cout, "Fleet pass vs serial oracle (outputs verified)");

  std::cout << "\nfleet vs serial at " << par::thread_count()
            << " thread(s): " << format_double(serial_ms / fleet_ms, 1)
            << "x\n";

  bench::BenchJson json("fleet_gateway");
  json.config("homes", homes)
      .config("duration_s", fleet.options().duration_s)
      .config("window_s", fleet.options().gateway.window_s)
      .config("infected_fraction", fleet.options().infected_fraction)
      .config("base_seed", static_cast<std::size_t>(fleet.options().base_seed))
      .config("threads", static_cast<std::size_t>(par::thread_count()));
  json.result("fleet_pass", fleet_ms,
              static_cast<double>(batched.packets) / (fleet_ms / 1e3),
              "packets/s")
      .result("serial_oracle", serial_ms,
              static_cast<double>(serial.packets) / (serial_ms / 1e3),
              "packets/s");
  json.metric("speedup_vs_serial", serial_ms / fleet_ms)
      .metric("homes_per_core_realtime", homes_per_core)
      .metric("packets", static_cast<double>(batched.packets))
      .metric("windows_classified",
              static_cast<double>(batched.windows_classified))
      .metric("quarantined_devices",
              static_cast<double>(batched.quarantined_devices))
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return EXIT_SUCCESS;
}
