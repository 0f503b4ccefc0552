// Unit tests for the synthetic-data substrate: occupancy schedules,
// appliance models, whole homes, weather fields, and solar generation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "synth/appliance.h"
#include "synth/home.h"
#include "synth/occupancy.h"
#include "synth/solar_gen.h"
#include "synth/weather.h"

namespace pmiot::synth {
namespace {

// --- occupancy ---------------------------------------------------------------

TEST(Occupancy, HorizonAndRange) {
  Rng rng(1);
  const auto occ = simulate_occupancy(OccupancyProfile{}, CivilDate{2017, 6, 5},
                                      7, rng);
  EXPECT_EQ(occ.size(), 7u * kMinutesPerDay);
  for (int v : occ) EXPECT_TRUE(v == 0 || v == 1);
}

TEST(Occupancy, EmployedWeekdayHasDaytimeAbsence) {
  Rng rng(2);
  OccupancyProfile profile;
  profile.wfh_probability = 0.0;
  profile.evening_out_probability = 0.0;
  profile.vacation_probability = 0.0;
  // 2017-06-05 is a Monday.
  const auto occ = simulate_occupancy(profile, CivilDate{2017, 6, 5}, 5, rng);
  // Midday (13:00) should be vacant on working weekdays.
  int vacant_middays = 0;
  for (int d = 0; d < 5; ++d) {
    vacant_middays += occ[static_cast<std::size_t>(d) * kMinutesPerDay +
                          13 * 60] == 0;
  }
  EXPECT_GE(vacant_middays, 4);
  // Nights stay occupied.
  for (int d = 0; d < 5; ++d) {
    EXPECT_EQ(occ[static_cast<std::size_t>(d) * kMinutesPerDay + 3 * 60], 1);
  }
}

TEST(Occupancy, UnemployedProfileMostlyHome) {
  Rng rng(3);
  OccupancyProfile profile;
  profile.employed = false;
  profile.weekend_errands_mean = 0.5;
  profile.evening_out_probability = 0.0;
  profile.vacation_probability = 0.0;
  const auto occ =
      simulate_occupancy(profile, CivilDate{2017, 6, 5}, 14, rng);
  EXPECT_GT(occupied_fraction(occ), 0.9);
}

TEST(Occupancy, VacationEmptiesWholeDays) {
  Rng rng(4);
  OccupancyProfile profile;
  profile.vacation_probability = 1.0;  // trip starts immediately
  const auto occ = simulate_occupancy(profile, CivilDate{2017, 6, 5}, 2, rng);
  EXPECT_DOUBLE_EQ(occupied_fraction(occ), 0.0);
}

TEST(Occupancy, DownsampleMajority) {
  std::vector<int> occ{1, 1, 0, 0, 0, 1};
  const auto down = downsample_occupancy(occ, 3);
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0], 1);  // 2 of 3 occupied
  EXPECT_EQ(down[1], 0);  // 1 of 3 occupied
}

TEST(Occupancy, RejectsBadArguments) {
  Rng rng(5);
  EXPECT_THROW(
      simulate_occupancy(OccupancyProfile{}, CivilDate{2017, 2, 30}, 1, rng),
      InvalidArgument);
  EXPECT_THROW(
      simulate_occupancy(OccupancyProfile{}, CivilDate{2017, 6, 1}, 0, rng),
      InvalidArgument);
}

// --- appliances ----------------------------------------------------------------

std::vector<int> always_home(int days) {
  return std::vector<int>(static_cast<std::size_t>(days) * kMinutesPerDay, 1);
}

std::vector<int> never_home(int days) {
  return std::vector<int>(static_cast<std::size_t>(days) * kMinutesPerDay, 0);
}

TEST(Appliance, CyclicalRunsRegardlessOfOccupancy) {
  Rng rng(6);
  const auto occupied = simulate_appliance(fridge(), always_home(2), rng);
  Rng rng2(6);
  const auto vacant = simulate_appliance(fridge(), never_home(2), rng2);
  // Identical draws: cyclical loads ignore occupancy entirely.
  EXPECT_EQ(occupied, vacant);
  EXPECT_GT(stats::max(occupied), 0.0);
}

TEST(Appliance, CyclicalDutyFractionMatchesModel) {
  Rng rng(7);
  const auto spec = fridge();
  const auto kw = simulate_appliance(spec, always_home(7), rng);
  std::size_t on = 0;
  for (double v : kw) on += v > 0.05 ? 1 : 0;
  const double duty = spec.duty_on_min / (spec.duty_on_min + spec.duty_off_min);
  EXPECT_NEAR(static_cast<double>(on) / static_cast<double>(kw.size()), duty,
              0.05);
}

TEST(Appliance, StartupSpikeAppears) {
  Rng rng(8);
  const auto kw = simulate_appliance(fridge(), always_home(2), rng);
  const double spike_level = fridge().steady_kw + fridge().startup_spike_kw;
  bool saw_spike = false;
  for (double v : kw) saw_spike |= std::fabs(v - spike_level) < 1e-9;
  EXPECT_TRUE(saw_spike);
}

TEST(Appliance, InteractiveLoadSilentWhenVacant) {
  Rng rng(9);
  const auto kw = simulate_appliance(toaster(), never_home(3), rng);
  EXPECT_DOUBLE_EQ(stats::max(kw), 0.0);
}

TEST(Appliance, InteractiveLoadActiveWhenHome) {
  Rng rng(10);
  const auto kw = simulate_appliance(lights(), always_home(7), rng);
  EXPECT_GT(stats::max(kw), 0.1);
}

TEST(Appliance, BackgroundInteractiveIgnoresOccupancy) {
  Rng rng(11);
  const auto kw = simulate_appliance(phantom_base(), never_home(1), rng);
  // Phantom load drains continuously.
  EXPECT_GT(stats::min(kw), 0.0);
}

TEST(Appliance, DryerHasHighAndLowPhases) {
  Rng rng(12);
  auto spec = dryer();
  spec.hourly_rate.fill(2.0);  // force frequent runs for the test
  const auto kw = simulate_appliance(spec, always_home(3), rng);
  bool saw_heater = false, saw_motor_only = false;
  for (double v : kw) {
    if (std::fabs(v - spec.steady_kw) < 0.01) saw_heater = true;
    if (std::fabs(v - spec.low_kw) < 0.01) saw_motor_only = true;
  }
  EXPECT_TRUE(saw_heater);
  EXPECT_TRUE(saw_motor_only);
}

TEST(Appliance, RejectsPartialDays) {
  Rng rng(13);
  std::vector<int> partial(100, 1);
  EXPECT_THROW(simulate_appliance(toaster(), partial, rng), InvalidArgument);
}

class CatalogEnergy : public ::testing::TestWithParam<int> {};

TEST_P(CatalogEnergy, EveryApplianceProducesBoundedPower) {
  const std::vector<ApplianceSpec> catalog = {
      toaster(),  microwave(), cooktop(),  dishwasher(), washer(),
      dryer(),    fridge(),    freezer(),  hrv(),        lights(),
      tv(),       computer(),  water_heater(), phantom_base(), misc_plugs()};
  const auto& spec = catalog[static_cast<std::size_t>(GetParam())];
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const auto kw = simulate_appliance(spec, always_home(3), rng);
  EXPECT_EQ(kw.size(), 3u * kMinutesPerDay);
  for (double v : kw) {
    EXPECT_GE(v, 0.0) << spec.name;
    EXPECT_LE(v, spec.steady_kw + spec.startup_spike_kw + 3.0) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CatalogEnergy, ::testing::Range(0, 15));

// --- homes ----------------------------------------------------------------------

TEST(Home, AggregateEqualsSumPlusNoise) {
  Rng rng(14);
  auto cfg = home_a();
  cfg.meter_noise_kw = 0.0;
  const auto trace = simulate_home(cfg, CivilDate{2017, 6, 1}, 2, rng);
  ts::TimeSeries sum = trace.per_appliance.front();
  for (std::size_t i = 1; i < trace.per_appliance.size(); ++i) {
    sum += trace.per_appliance[i];
  }
  for (std::size_t t = 0; t < sum.size(); ++t) {
    EXPECT_NEAR(trace.aggregate[t], sum[t], 1e-9);
  }
}

TEST(Home, TraceShapesConsistent) {
  Rng rng(15);
  const auto trace = simulate_home(home_b(), CivilDate{2017, 6, 1}, 3, rng);
  EXPECT_EQ(trace.aggregate.size(), 3u * kMinutesPerDay);
  EXPECT_EQ(trace.occupancy.size(), trace.aggregate.size());
  EXPECT_EQ(trace.per_appliance.size(), trace.appliance_names.size());
  EXPECT_NO_THROW(trace.appliance_index("fridge"));
  EXPECT_THROW(trace.appliance_index("nonexistent"), InvalidArgument);
}

TEST(Home, DeterministicGivenSeed) {
  Rng a(16), b(16);
  const auto t1 = simulate_home(home_a(), CivilDate{2017, 6, 1}, 2, a);
  const auto t2 = simulate_home(home_a(), CivilDate{2017, 6, 1}, 2, b);
  EXPECT_EQ(t1.aggregate, t2.aggregate);
  EXPECT_EQ(t1.occupancy, t2.occupancy);
}

TEST(Home, PopulationIsVariedButStable) {
  const auto pop1 = home_population(8);
  const auto pop2 = home_population(8);
  ASSERT_EQ(pop1.size(), 8u);
  // Same call, same population (the population is part of the benchmark).
  for (std::size_t i = 0; i < pop1.size(); ++i) {
    EXPECT_EQ(pop1[i].appliances.size(), pop2[i].appliances.size());
  }
  // Appliance fleets differ across homes.
  bool differs = false;
  for (std::size_t i = 1; i < pop1.size(); ++i) {
    differs |= pop1[i].appliances.size() != pop1[0].appliances.size();
  }
  EXPECT_TRUE(differs);
}

TEST(Home, OccupiedPeriodsUseMoreEnergy) {
  Rng rng(17);
  const auto trace = simulate_home(home_a(), CivilDate{2017, 6, 5}, 14, rng);
  std::vector<double> occupied, vacant;
  for (std::size_t t = 0; t < trace.aggregate.size(); ++t) {
    const int mod = trace.aggregate.minute_of_day_at(t);
    if (mod < 8 * 60 || mod >= 23 * 60) continue;  // waking hours only
    (trace.occupancy[t] != 0 ? occupied : vacant)
        .push_back(trace.aggregate[t]);
  }
  ASSERT_FALSE(occupied.empty());
  ASSERT_FALSE(vacant.empty());
  EXPECT_GT(stats::mean(occupied), stats::mean(vacant) * 1.3);
}

// --- weather ----------------------------------------------------------------------

TEST(Weather, CloudInUnitInterval) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 5, 42);
  const auto series = field.cloud_series(geo::LatLon{40.0, -90.0});
  EXPECT_EQ(series.size(), 5u * 24);
  for (double c : series) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(Weather, DeterministicQueries) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 3, 42);
  const geo::LatLon where{38.5, -100.25};
  EXPECT_EQ(field.cloud_series(where), field.cloud_series(where));
}

TEST(Weather, SpatialCorrelationDecaysWithDistance) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 30, 7);
  const geo::LatLon base{40.0, -95.0};
  const auto s0 = field.cloud_series(base);
  const auto near = field.cloud_series(geo::LatLon{40.1, -95.0});   // ~11 km
  const auto mid = field.cloud_series(geo::LatLon{41.5, -95.0});    // ~170 km
  const auto far = field.cloud_series(geo::LatLon{46.0, -80.0});    // ~1300 km
  const double c_near = stats::pearson(s0, near);
  const double c_mid = stats::pearson(s0, mid);
  const double c_far = stats::pearson(s0, far);
  EXPECT_GT(c_near, c_mid);
  EXPECT_GT(c_mid, c_far);
  EXPECT_GT(c_near, 0.9);
  EXPECT_LT(c_far, 0.8);
}

TEST(Weather, StationGridCoversRegion) {
  WeatherOptions options;
  const auto grid = make_station_grid(options, 3, 4);
  ASSERT_EQ(grid.size(), 12u);
  EXPECT_DOUBLE_EQ(grid.front().location.lat, options.lat_min);
  EXPECT_DOUBLE_EQ(grid.back().location.lat, options.lat_max);
  EXPECT_DOUBLE_EQ(grid.front().location.lon, options.lon_min);
  EXPECT_DOUBLE_EQ(grid.back().location.lon, options.lon_max);
}

// --- solar -----------------------------------------------------------------------

TEST(Solar, ZeroAtNightPositiveAtNoon) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 3, 11);
  Rng rng(18);
  SolarSite site{"test", {42.0, -72.0}, 6.0, 0.85, 1.0, 0.0};
  const auto gen = simulate_solar(site, field, CivilDate{2017, 6, 1}, 3, rng);
  // 08:00 UTC is ~4am local for lon -72: before sunrise in June.
  EXPECT_DOUBLE_EQ(gen[8 * 60], 0.0);
  const auto times = geo::solar_times_utc(site.location, CivilDate{2017, 6, 1});
  const auto noon_idx = static_cast<std::size_t>(times.solar_noon_utc_min);
  EXPECT_GT(gen[noon_idx], 1.0);
}

TEST(Solar, NeverExceedsCapacity) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 5, 12);
  Rng rng(19);
  SolarSite site{"test", {35.0, -100.0}, 4.0, 0.9, 1.1, 0.05};
  const auto gen = simulate_solar(site, field, CivilDate{2017, 6, 1}, 5, rng);
  for (std::size_t i = 0; i < gen.size(); ++i) {
    EXPECT_GE(gen[i], 0.0);
    EXPECT_LE(gen[i], site.capacity_kw);
  }
}

TEST(Solar, HorizonMustBeCovered) {
  WeatherField field(WeatherOptions{}, CivilDate{2017, 6, 1}, 2, 13);
  Rng rng(20);
  SolarSite site{"test", {35.0, -100.0}, 4.0, 0.9, 1.0, 0.0};
  EXPECT_THROW(simulate_solar(site, field, CivilDate{2017, 6, 1}, 3, rng),
               InvalidArgument);
  EXPECT_THROW(simulate_solar(site, field, CivilDate{2017, 5, 31}, 2, rng),
               InvalidArgument);
}

TEST(Solar, CloudyDaysProduceLess) {
  // Compare the same site under a clear vs cloudy field by hacking the
  // mean cloudiness.
  WeatherOptions clear_opt;
  clear_opt.mean_cloud = 0.05;
  WeatherOptions cloudy_opt;
  cloudy_opt.mean_cloud = 0.85;
  WeatherField clear(clear_opt, CivilDate{2017, 6, 1}, 5, 14);
  WeatherField cloudy(cloudy_opt, CivilDate{2017, 6, 1}, 5, 14);
  Rng r1(21), r2(21);
  SolarSite site{"test", {40.0, -90.0}, 6.0, 0.85, 1.0, 0.0};
  const auto g_clear =
      simulate_solar(site, clear, CivilDate{2017, 6, 1}, 5, r1);
  const auto g_cloudy =
      simulate_solar(site, cloudy, CivilDate{2017, 6, 1}, 5, r2);
  EXPECT_GT(g_clear.energy_kwh(), g_cloudy.energy_kwh() * 1.5);
}

TEST(Solar, Fig5SitesAreTenDistinctStates) {
  const auto sites = fig5_sites();
  ASSERT_EQ(sites.size(), 10u);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      EXPECT_GT(geo::haversine_km(sites[i].location, sites[j].location), 100.0);
    }
  }
}

}  // namespace
}  // namespace pmiot::synth
