// §III-E: user-controllable privacy — the paper's proposed tunable "knob".
//
// Sweeps four tunable defenses over intensity theta in [0,1] and reports,
// for each point, what the attack suite still learns (occupancy MCC and
// appliance-tracking fidelity) against what utility is lost (billing error,
// hourly-analytics distortion, physical energy cost). This is the frontier
// a user's privacy knob navigates.
//
// The intensity points of each sweep run on the worker pool; `sweep`
// pre-forks the point RNGs serially, so the tables below are bitwise
// identical at any PMIOT_THREADS.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>

#include "bench_json.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/privacy.h"
#include "net/arena.h"

using namespace pmiot;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // Opt-in network dimension: default output stays byte-identical so the
  // CI determinism diffs over this bench keep their baseline.
  bool with_net = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--net") with_net = true;
  }

  Rng rng(21);
  const auto home =
      synth::simulate_home(synth::home_b(), CivilDate{2017, 6, 5}, 7, rng);
  const auto evaluator = core::PrivacyEvaluator::standard();
  const std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::cout
      << "==============================================================\n"
         "SIII-E — the privacy knob: leakage vs utility across defenses\n"
         "Home-B, one week, 1-minute data. theta = knob position.\n"
         "==============================================================\n\n";

  std::vector<std::unique_ptr<core::Defense>> defenses;
  defenses.push_back(std::make_unique<core::SmoothingDefense>());
  defenses.push_back(std::make_unique<core::NoiseDefense>());
  defenses.push_back(std::make_unique<core::BatteryLevelDefense>());
  defenses.push_back(std::make_unique<core::ChprDefense>());

  bench::BenchJson json("knob_tradeoff");
  json.config("days", 7)
      .config("intensities", intensities.size())
      .config("threads", static_cast<std::size_t>(par::thread_count()));

  for (const auto& defense : defenses) {
    Rng sweep_rng(77);
    const auto t0 = Clock::now();
    const auto frontier =
        evaluator.sweep(*defense, home, intensities, sweep_rng);
    const double sweep_ms = ms_between(t0, Clock::now());
    json.result(defense->name(), sweep_ms,
                static_cast<double>(frontier.size()) / (sweep_ms / 1e3),
                "points/s");
    Table table({"theta", "occupancy leak", "NILM leak", "billing err",
                 "analytics err", "extra kWh/wk"});
    for (const auto& point : frontier) {
      table.add_row()
          .cell(point.intensity, 2)
          .cell(point.leakage.at("occupancy(NIOM)"))
          .cell(point.leakage.at("appliances(NILM)"))
          .cell(point.billing_error)
          .cell(point.analytics_error)
          .cell(point.extra_energy_kwh, 1);
    }
    table.print(std::cout, "defense: " + defense->name());
    std::cout << '\n';
  }

  std::cout
      << "Reading the frontiers (matches the paper's qualitative claims):\n"
         "  * smoothing/noise are free but only blunt NILM — occupancy\n"
         "    still leaks through the mean (\"preventing occupancy detection\n"
         "    ... requires shifting a large amount of load\");\n"
         "  * the battery defeats both attacks at full strength but wrecks\n"
         "    the hourly analytics a utility legitimately needs and burns\n"
         "    round-trip energy in dedicated hardware;\n"
         "  * CHPr rides a load the home heats anyway: occupancy leakage\n"
         "    falls steadily with theta at modest cost — the tunable\n"
         "    tradeoff the paper's SIII-E calls for.\n";

  if (with_net) {
    // The same knob, one layer down: traffic reshaping vs the supervised
    // fingerprint panel (see net/arena.h). Privacy is the strongest
    // attacker's device-identification MCC; utility is bandwidth overhead
    // and added queueing latency.
    net::ArenaOptions options;
    options.duration_s = 1800.0;
    options.window_s = 300.0;
    options.intensities = intensities;
    const auto t0 = Clock::now();
    const auto arena = net::run_arena(options);
    const double arena_ms = ms_between(t0, Clock::now());
    json.result("net_arena", arena_ms,
                static_cast<double>(arena.cells.size()) / (arena_ms / 1e3),
                "cells/s");
    Table table({"theta", "fingerprint MCC", "naive MCC", "bytes overhead",
                 "added latency s"});
    std::size_t cell = 0;
    for (const auto& name : options.defenses) {
      for (std::size_t i = 0; i < options.intensities.size(); ++i, ++cell) {
        const auto& c = arena.cells[cell];
        table.add_row()
            .cell(c.intensity, 2)
            .cell(c.privacy_mcc)
            .cell(c.naive_mcc)
            .cell(c.added_bytes_fraction)
            .cell(c.mean_added_latency_s);
      }
      table.print(std::cout, "traffic defense: " + name);
      std::cout << '\n';
      table = Table({"theta", "fingerprint MCC", "naive MCC",
                     "bytes overhead", "added latency s"});
    }
  }

  json.metric("defenses", static_cast<double>(defenses.size()));
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return 0;
}
