// Figure 2 reproduction: disaggregation error factor for PowerPlay vs the
// conventional FHMM baseline on the five tracked devices (toaster, fridge,
// freezer, dryer, HRV), in a home that also contains untracked interactive
// loads ("noisy smart meter data").
//
// Paper shape: PowerPlay clearly lower error for the small loads; FHMM near
// or above 1.0 for them; both accurate on the big dryer (the "exception").
//
// The per-seed simulations fan out across the shared pmiot::par pool; every
// seed's randomness derives from the seed alone and its results land in its
// own slot before an ordered reduction, so the table is bitwise identical at
// any PMIOT_THREADS value.
#include <iostream>
#include <map>

#include "bench_json.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "nilm/error.h"
#include "nilm/fhmm_nilm.h"
#include "nilm/powerplay.h"
#include "obs/metrics.h"
#include "synth/home.h"

using namespace pmiot;

int main() {
  const std::vector<std::string> devices = {"toaster", "fridge", "freezer",
                                            "dryer", "hrv"};
  const auto config = synth::fig2_home();
  constexpr int kTrainDays = 14;
  constexpr int kTestDays = 7;
  const std::vector<std::uint64_t> seeds = {2024, 7, 99};

  struct SeedResult {
    std::map<std::string, double> powerplay_err, fhmm_err;
    std::map<std::string, int> counted;
  };
  std::vector<SeedResult> per_seed(seeds.size());

  const auto sweep_start = bench::Clock::now();
  par::parallel_for(0, seeds.size(), [&](std::size_t i) {
    const auto seed = seeds[i];
    auto& out = per_seed[i];
    Rng rng(seed);
    const auto train =
        synth::simulate_home(config, CivilDate{2017, 5, 1}, kTrainDays, rng);
    const auto test =
        synth::simulate_home(config, CivilDate{2017, 6, 1}, kTestDays, rng);

    // PowerPlay: a priori models of the tracked loads.
    std::vector<nilm::LoadModel> models;
    for (const auto& name : devices) {
      for (const auto& spec : config.appliances) {
        if (spec.name == name) {
          models.push_back(nilm::LoadModel::from_spec(spec));
        }
      }
    }
    nilm::PowerPlay powerplay(models);
    const auto tracked = powerplay.track(test.aggregate);

    // FHMM: chains learned from submetered training data.
    Rng fit_rng(seed + 1);
    nilm::FhmmNilmOptions options;
    options.states_per_appliance = 3;
    nilm::FhmmNilm fhmm(train, devices, fit_rng, options);
    const auto estimates = fhmm.disaggregate(test.aggregate);

    for (std::size_t d = 0; d < devices.size(); ++d) {
      const auto idx = test.appliance_index(devices[d]);
      const auto& actual = test.per_appliance[idx];
      if (actual.energy_kwh() <= 0.0) continue;  // device never ran this week
      out.powerplay_err[devices[d]] +=
          nilm::disaggregation_error(tracked[d].power, actual.values());
      out.fhmm_err[devices[d]] +=
          nilm::disaggregation_error(estimates[d], actual.values());
      ++out.counted[devices[d]];
    }
  });
  const double sweep_ms = bench::ms_between(sweep_start, bench::Clock::now());

  // Ordered reduction over seeds — same accumulation order as a serial loop.
  std::map<std::string, double> powerplay_err, fhmm_err;
  std::map<std::string, int> counted;
  for (const auto& result : per_seed) {
    for (const auto& [name, err] : result.powerplay_err) {
      powerplay_err[name] += err;
    }
    for (const auto& [name, err] : result.fhmm_err) fhmm_err[name] += err;
    for (const auto& [name, n] : result.counted) counted[name] += n;
  }

  std::cout
      << "==============================================================\n"
         "Figure 2 — disaggregation error factor: PowerPlay vs FHMM\n"
         "Home contains the 5 tracked devices + untracked noise loads.\n"
         "Error 0 = perfect; 1.0 = as bad as always answering zero.\n"
         "(averaged over "
      << seeds.size() << " simulated households, " << kTestDays
      << "-day test window)\n"
         "==============================================================\n\n";

  bench::BenchJson json("fig2_nilm_error");
  json.config("seeds", seeds.size())
      .config("train_days", kTrainDays)
      .config("test_days", kTestDays)
      .config("threads", par::thread_count());

  Table table({"device", "PowerPlay", "FHMM", "PowerPlay wins"});
  int small_load_wins = 0, small_loads = 0;
  for (const auto& device : devices) {
    const int n = counted[device];
    if (n == 0) continue;
    const double pp = powerplay_err[device] / n;
    const double fh = fhmm_err[device] / n;
    table.add_row().cell(device).cell(pp).cell(fh).cell(
        pp < fh ? "yes" : "no");
    json.metric("powerplay_err_" + device, pp)
        .metric("fhmm_err_" + device, fh);
    if (device != "dryer") {
      ++small_loads;
      small_load_wins += pp < fh ? 1 : 0;
    }
  }
  table.print(std::cout, "Disaggregation error factor per device");

  std::cout << "\nShape check vs paper: PowerPlay beats the FHMM on "
            << small_load_wins << "/" << small_loads
            << " small loads; the dryer (large load) is accurately tracked\n"
               "by both, with the FHMM competitive there — the paper's "
               "\"exception\".\n";

  json.result("seed_sweep", sweep_ms,
              static_cast<double>(seeds.size()) / (sweep_ms / 1e3),
              "households/s");
  json.metric("small_load_wins", small_load_wins);
  if (json.write()) std::cout << "\nwrote " << json.path() << '\n';
  pmiot::obs::emit_if_enabled("fig2_nilm_error");
  return 0;
}
