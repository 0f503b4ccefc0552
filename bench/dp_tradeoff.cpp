// §III-A evaluation: where differential privacy does and does not help.
//
// The paper argues DP fits *published aggregate datasets* (utility analytics
// stay accurate while individuals stay hidden), but is the wrong tool for
// the per-home stream a cloud service already receives. The epsilon sweep
// quantifies both: neighborhood-aggregate relative error, and the NIOM
// attack MCC on a single home's epsilon-noised released stream.
//
// Both the 200-home simulation and the epsilon rows run on the worker pool.
// Every RNG is seeded per shard (`par::shard_seed` for homes, fixed
// per-row seeds for the Laplace draws), so the tables are bitwise
// identical at any PMIOT_THREADS.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "defense/dp.h"
#include "niom/detector.h"
#include "niom/evaluate.h"
#include "synth/home.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;

/// One computed epsilon row, slot-written by the parallel sweep and
/// rendered into the table serially afterwards.
struct EpsilonRow {
  double epsilon = 0.0;
  double aggregate_error = 0.0;
  double mcc = 0.0;
  double accuracy = 0.0;
};

}  // namespace

int main() {
  // A feeder-scale neighborhood at the granularity utilities actually
  // release: hourly totals over a couple hundred homes.
  constexpr int kHomes = 200;
  constexpr int kDays = 7;
  constexpr double kSensitivityKw = 10.0;  // residential service-panel bound
  constexpr std::uint64_t kPopulationSeed = 31;

  const auto population = synth::home_population(kHomes);
  synth::HomeTrace probe_home = [] {
    Rng rng(30);
    return synth::simulate_home(synth::home_population(1)[0],
                                CivilDate{2017, 6, 5}, kDays, rng);
  }();

  // Simulate the neighborhood in parallel. Each home draws from its own
  // shard-seeded stream, so the hourly columns do not depend on how the
  // pool interleaves the work.
  const auto sim_t0 = Clock::now();
  std::vector<ts::TimeSeries> hourly(kHomes);
  par::parallel_for(0, kHomes, [&](std::size_t i) {
    Rng sim_rng(par::shard_seed(kPopulationSeed, i));
    hourly[i] = synth::simulate_home(population[i], CivilDate{2017, 6, 5},
                                     kDays, sim_rng)
                    .aggregate.resample(3600);
  });
  const double sim_ms = ms_between(sim_t0, Clock::now());

  std::cout
      << "==============================================================\n"
         "SIII-A — differential privacy: utility vs leakage across epsilon\n"
      << kHomes << " homes x " << kDays
      << " days; hourly aggregate release, Laplace mechanism, sensitivity "
      << kSensitivityKw
      << " kW.\n"
         "==============================================================\n\n";

  niom::ThresholdNiom attack;
  const auto raw_report = niom::evaluate(
      attack, probe_home.aggregate, probe_home.occupancy, niom::waking_hours());

  // Each epsilon row reseeds its Laplace draws, so the rows are independent
  // and slot-write cleanly under the pool.
  const std::vector<double> epsilons = {0.05, 0.1, 0.5, 1.0, 5.0, 20.0};
  const auto sweep_t0 = Clock::now();
  std::vector<EpsilonRow> rows(epsilons.size());
  par::parallel_for(0, epsilons.size(), [&](std::size_t i) {
    const double epsilon = epsilons[i];
    constexpr std::uint64_t kAggSeed = 100;
    Rng agg_rng(kAggSeed);
    const auto released =
        defense::dp_aggregate(hourly, epsilon, kSensitivityKw, agg_rng);

    constexpr std::uint64_t kHomeSeed = 200;
    Rng home_rng(kHomeSeed);
    const auto noisy_home = defense::dp_single_home(
        probe_home.aggregate, epsilon, kSensitivityKw, home_rng);
    const auto report = niom::evaluate(attack, noisy_home,
                                       probe_home.occupancy,
                                       niom::waking_hours());
    rows[i] = {epsilon, defense::aggregate_error(hourly, released),
               report.mcc, report.accuracy};
  });
  const double sweep_ms = ms_between(sweep_t0, Clock::now());

  Table table({"epsilon", "aggregate rel. error", "single-home NIOM MCC",
               "single-home NIOM acc"});
  for (const auto& row : rows) {
    table.add_row()
        .cell(row.epsilon, 2)
        .cell(row.aggregate_error)
        .cell(row.mcc)
        .cell(row.accuracy);
  }
  table.print(std::cout, "epsilon sweep");

  std::cout << "\n(no noise: single-home NIOM MCC "
            << format_double(raw_report.mcc, 3) << ", accuracy "
            << format_double(raw_report.accuracy, 3) << ")\n\n"
            << "Reading the table (the paper's argument):\n"
            << "  * strong epsilon (<= 0.1) kills the occupancy attack on a\n"
               "    released single-home stream, but only because the data is\n"
               "    destroyed for everyone, including the service;\n"
            << "  * the neighborhood aggregate stays accurate even at small\n"
               "    epsilon, so DP is the right tool for published datasets\n"
               "    while per-home streams need other defenses (CHPr etc.).\n";

  bench::BenchJson json("dp_tradeoff");
  json.config("homes", kHomes)
      .config("days", kDays)
      .config("sensitivity_kw", kSensitivityKw)
      .config("epsilons", epsilons.size())
      .config("threads", static_cast<std::size_t>(par::thread_count()));
  json.result("simulate_population", sim_ms,
              static_cast<double>(kHomes) / (sim_ms / 1e3), "homes/s")
      .result("epsilon_sweep", sweep_ms,
              static_cast<double>(epsilons.size()) / (sweep_ms / 1e3),
              "rows/s");
  json.metric("raw_niom_mcc", raw_report.mcc)
      .metric("raw_niom_accuracy", raw_report.accuracy);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return 0;
}
