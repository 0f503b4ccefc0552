// Traffic-reshaping defense arena bench (paper §III-E at the network
// layer), self-checked before any timing claim.
//
// Self-check (deterministic output only — CI diffs it across
// PMIOT_THREADS ∈ {1, 4, 16}):
//   * intensity 0 is a bitwise passthrough for every registered defense;
//   * constant-rate padding equals its stable-sorting reference, bill
//     included;
//   * shaped captures run through the streaming WindowAccumulator and the
//     arena's streaming recovery path match the per-window
//     extract_window_features / extract_recovery_features references bit
//     for bit;
//   * the pooled arena == a width-1 pool (the serial reference), bitwise,
//     and pool width 4 agrees too, in-process (ScopedPoolOverride);
//   * the net arena config round-trips through its canonical text;
//   * on constant-rate-padded traffic at every intensity > 0, the
//     retrained adaptive attacker strictly beats the naive pre-trained
//     one (the arXiv:2406.10358 "I Still See You" result) — a reshaping
//     evaluation that only fields the naive attacker overstates privacy.
//
// Timed mode then runs the reference grid and records wall time,
// cell throughput, and the per-defense privacy/utility readout in
// BENCH_net_defense_arena.json.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "bench_util.h"
#include "campaign/config_text.h"
#include "campaign/net_axis.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/arena.h"
#include "net/device.h"
#include "net/features.h"
#include "net/shaping.h"
#include "obs/metrics.h"
#include "reference/recovery_features.h"
#include "reference/shaping_oracle.h"
#include "reference/window_features.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;
using bench::fail;

/// Small grid the equalities are proven on (seconds, not minutes, across
/// four full arena runs).
net::ArenaOptions self_check_options() {
  net::ArenaOptions options;
  options.duration_s = 1800.0;
  options.window_s = 300.0;
  options.intensities = {0.0, 0.5, 1.0};
  return options;
}

int self_check() {
  const auto options = self_check_options();

  // --- intensity 0 is a bitwise passthrough --------------------------------
  {
    Rng rng(options.seed);
    const auto home = net::simulate_home_network(2, 900.0, rng);
    for (const auto& name : net::traffic_defense_names()) {
      const auto defense = net::make_traffic_defense(name);
      Rng apply_rng(par::shard_seed(options.seed, 17));
      const auto shaped = defense->apply(home, 900.0, 0.0, apply_rng);
      if (shaped.packets != home.packets) {
        return fail("defense '" + name + "' mutates packets at intensity 0");
      }
      if (shaped.added_bytes != 0.0 || shaped.added_latency_s != 0.0 ||
          shaped.delayed_packets != 0) {
        return fail("defense '" + name + "' bills utility at intensity 0");
      }
    }
    std::cout << "self-check OK: intensity 0 is a bitwise passthrough ("
              << net::traffic_defense_names().size() << " defenses)\n";
  }

  // --- streaming extractor parity on shaped captures -----------------------
  {
    Rng rng(par::shard_seed(options.seed, 23));
    const auto home = net::simulate_home_network(2, 1200.0, rng);
    const double window_s = 300.0;
    for (const auto& name : net::traffic_defense_names()) {
      const auto defense = net::make_traffic_defense(name);
      Rng apply_rng(par::shard_seed(options.seed, 29));
      const auto shaped = defense->apply(home, 1200.0, 0.7, apply_rng);
      if (name == "constant-rate") {  // the lane merge vs the stable sort
        Rng oracle_rng(par::shard_seed(options.seed, 29));
        const auto want =
            reference::constant_rate_padding(home, 1200.0, 0.7, oracle_rng);
        if (shaped.packets != want.packets ||
            shaped.added_bytes != want.added_bytes ||
            shaped.added_latency_s != want.added_latency_s ||
            shaped.delayed_packets != want.delayed_packets) {
          return fail("constant-rate padding diverges from the "
                      "stable-sorting reference");
        }
      }
      const auto wan = net::wan_view(shaped.packets);
      for (const auto& device : home.devices) {
        const auto rows = net::windowed_features(
            wan, device.ip, 1200.0, window_s, /*keep_idle_windows=*/true);
        for (const auto& row : rows) {
          const double t0 =
              static_cast<double>(row.window_index) * window_s;
          const auto reference = reference::extract_window_features(
              wan, device.ip, t0, t0 + window_s);
          if (row.features != reference) {
            return fail("WindowAccumulator diverges from "
                        "extract_window_features on '" +
                        name + "' shaped traffic (device " + device.name +
                        ", window " + std::to_string(row.window_index) + ")");
          }
        }
        const auto recovery = net::windowed_recovery_features(
            wan, device.ip, 1200.0, window_s);
        for (const auto& row : recovery) {
          const double t0 =
              static_cast<double>(row.window_index) * window_s;
          if (row.features != reference::extract_recovery_features(
                                  wan, device.ip, t0, t0 + window_s)) {
            return fail("streaming recovery features diverge from "
                        "extract_recovery_features on '" +
                        name + "' shaped traffic (device " + device.name +
                        ", window " + std::to_string(row.window_index) + ")");
          }
        }
      }
    }
    std::cout << "self-check OK: streaming extractor matches the per-window "
                 "reference on every defense's shaped capture\n";
  }

  // --- arena determinism ----------------------------------------------------
  const auto base = net::run_arena(options);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride override_pool(pool);
    const auto run = net::run_arena(options);
    if (const auto d = net::describe_divergence(base, run); !d.empty()) {
      return fail("pool width " + std::to_string(width) +
                  " diverges from default: " + d);
    }
    if (width == 1) {
      std::cout << "self-check OK: pooled arena == serial oracle ("
                << base.cells.size() << " cells)\n";
    }
  }
  std::cout << "self-check OK: pool widths 1/4/default agree\n";

  // --- config round trip ----------------------------------------------------
  {
    const auto reparsed =
        campaign::parse_net_config(campaign::canonical_net_text(options));
    if (campaign::canonical_net_text(reparsed) !=
            campaign::canonical_net_text(options) ||
        campaign::net_config_hash(reparsed) !=
            campaign::net_config_hash(options)) {
      return fail("net arena config does not round-trip canonically");
    }
    std::cout << "self-check OK: net arena config round-trips (hash "
              << campaign::text::format_hash(campaign::net_config_hash(options))
              << ")\n";

    // The frontier artifact, byte-stable across thread counts.
    std::ostringstream frontier;
    campaign::write_net_frontier_csv(frontier, options, base);
    std::cout << "--- net frontier ---\n" << frontier.str()
              << "--- end frontier ---\n";
  }

  // --- the adaptive-attacker result ----------------------------------------
  for (const auto& cell : base.cells) {
    if (cell.defense != "constant-rate" || cell.intensity <= 0.0) continue;
    if (!(cell.privacy_mcc > cell.naive_mcc)) {
      return fail("adaptive attacker does not beat the naive one on "
                  "constant-rate padding at intensity " +
                  std::to_string(cell.intensity) + " (adaptive " +
                  std::to_string(cell.privacy_mcc) + " vs naive " +
                  std::to_string(cell.naive_mcc) + ")");
    }
  }
  std::cout << "self-check OK: retrained adaptive attacker strictly beats "
               "the naive pre-trained attacker on constant-rate padding at "
               "every intensity > 0\n";
  return EXIT_SUCCESS;
}

int timed_run() {
  auto options = self_check_options();
  options.duration_s = 3600.0;
  options.intensities = {0.0, 0.35, 0.7, 1.0};

  const auto t0 = Clock::now();
  const auto result = net::run_arena(options);
  const auto t1 = Clock::now();
  const double wall_ms = ms_between(t0, t1);
  const double cells = static_cast<double>(result.cells.size());

  std::printf("\narena: %zu cells in %.0f ms (%.2f cells/s)\n",
              result.cells.size(), wall_ms, cells / (wall_ms / 1000.0));
  std::printf("%-14s %-9s %-11s %-11s %-10s %-10s\n", "defense", "intensity",
              "bytes_frac", "latency_s", "naive_mcc", "adaptive");
  for (const auto& cell : result.cells) {
    std::printf("%-14s %-9.2f %-11.3f %-11.3f %-10.3f %-10.3f\n",
                cell.defense.c_str(), cell.intensity,
                cell.added_bytes_fraction, cell.mean_added_latency_s,
                cell.naive_mcc, cell.privacy_mcc);
  }

  bench::BenchJson json("net_defense_arena");
  json.config("defenses", std::to_string(options.defenses.size()))
      .config("intensities", std::to_string(options.intensities.size()))
      .config("duration_s", options.duration_s)
      .config("window_s", options.window_s)
      .config("threads", par::thread_count());
  json.result("arena", wall_ms, cells / (wall_ms / 1000.0), "cells/s");
  for (const auto& cell : result.cells) {
    if (cell.intensity != 1.0) continue;
    json.metric(cell.defense + "_naive_mcc", cell.naive_mcc);
    json.metric(cell.defense + "_adaptive_mcc", cell.privacy_mcc);
    json.metric(cell.defense + "_bytes_frac", cell.added_bytes_fraction);
    json.metric(cell.defense + "_latency_s", cell.mean_added_latency_s);
  }
  json.write();
  std::cout << "wrote " << json.path() << '\n';
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  const bool self_check_only =
      argc > 1 && std::strcmp(argv[1], "--self-check") == 0;
  int rc = self_check();
  if (rc == EXIT_SUCCESS && !self_check_only) rc = timed_run();
  obs::emit_if_enabled("net_defense_arena");
  return rc;
}
