// Cross-module integration tests: each exercises a full paper pipeline
// end-to-end, the way the examples and benches compose the libraries.
#include <gtest/gtest.h>

#include <cmath>

#include "core/privacy.h"
#include "defense/chpr.h"
#include "ml/random_forest.h"
#include "net/fingerprint.h"
#include "net/gateway.h"
#include "niom/detector.h"
#include "niom/evaluate.h"
#include "solar/sundance.h"
#include "solar/sunspot.h"
#include "synth/solar_gen.h"
#include "zkp/meter.h"

namespace pmiot {
namespace {

TEST(Integration, HomeChprNiomPipeline) {
  // Simulate -> defend -> attack.
  auto config = synth::home_b();
  std::vector<synth::ApplianceSpec> appliances;
  for (const auto& spec : config.appliances) {
    if (spec.name != "water_heater") appliances.push_back(spec);
  }
  config.appliances = appliances;
  Rng rng(101);
  const auto home = synth::simulate_home(config, CivilDate{2017, 6, 5}, 7, rng);

  const auto draws = defense::simulate_hot_water_draws(home.occupancy, rng);
  const auto chpr =
      defense::apply_chpr(home.aggregate, draws, defense::ChprOptions{}, rng);

  niom::ThresholdNiom attack;
  const auto raw = niom::evaluate(attack, home.aggregate, home.occupancy,
                                  niom::waking_hours());
  const auto masked =
      niom::evaluate(attack, chpr.masked, home.occupancy, niom::waking_hours());
  EXPECT_LT(masked.mcc, raw.mcc * 0.6);
  EXPECT_EQ(chpr.comfort_violation_minutes, 0);
}

TEST(Integration, SolarNetMeterRecoveryPipeline) {
  // Generation + consumption -> net meter -> SunSpot localization ->
  // weather lookup at the estimate -> SunDance -> NIOM on the recovery.
  const CivilDate start{2017, 5, 1};
  const synth::WeatherField weather(synth::WeatherOptions{}, start, 30, 99);
  const synth::SolarSite site{"it", {40.0, -88.0}, 6.0, 0.85, 1.0, 0.01};
  Rng rng(102);
  const auto generation =
      synth::simulate_solar(site, weather, start, 30, rng);
  const auto home = synth::simulate_home(synth::home_b(), start, 30, rng);
  auto net = home.aggregate;
  net -= generation;

  // Localize from the gross feed (the vendor's own data), then use the
  // estimate to fetch weather and disaggregate the utility's net data.
  const auto located = solar::sunspot_localize(generation);
  EXPECT_LT(geo::haversine_km(located.estimate, site.location), 150.0);
  const auto clouds = weather.cloud_series(located.estimate);
  const auto recovered =
      solar::sundance_disaggregate(net, located.estimate, clouds);

  niom::ThresholdNiom attack;
  const auto on_recovered =
      niom::evaluate(attack, recovered.consumption_estimate, home.occupancy,
                     niom::waking_hours());
  auto clamped = net;
  clamped.clamp_min(0.0);
  const auto on_net = niom::evaluate(attack, clamped, home.occupancy,
                                     niom::waking_hours());
  EXPECT_GT(on_recovered.mcc, on_net.mcc);
}

TEST(Integration, CaptureReplayGatewayPipeline) {
  // Simulate a LAN with an infected device and run the gateway over the
  // capture twice — a replay of the same capture must reach the live
  // run's decisions.
  Rng rng(103);
  net::FingerprintOptions options;
  options.instances_per_type = 2;
  options.duration_s = 3600.0;
  auto data = net::build_fingerprint_dataset(options, rng);
  ml::RandomForest classifier;
  classifier.fit(data);
  net::AnomalyDetector detector;
  detector.fit(data);

  Rng home_rng(104);
  auto home = net::simulate_home_network(1, 3600.0, home_rng);
  auto infected = home.devices[0];
  infected.infection = net::Infection::kScanner;
  infected.infection_start_s = 600.0;
  const auto extra = net::simulate_device(infected, 3600.0, home_rng);
  home.packets.insert(home.packets.end(), extra.begin(), extra.end());
  net::sort_by_time(home.packets);

  net::SmartGateway gateway(classifier, detector, net::GatewayOptions{});
  for (const auto& device : home.devices) {
    gateway.register_device(device.ip, device.name);
  }
  const auto live = gateway.process(home.packets, 3600.0);
  const auto replayed = gateway.process(home.packets, 3600.0);

  ASSERT_EQ(live.verdicts.size(), replayed.verdicts.size());
  for (std::size_t i = 0; i < live.verdicts.size(); ++i) {
    EXPECT_EQ(live.verdicts[i].final_zone, replayed.verdicts[i].final_zone);
    EXPECT_EQ(live.verdicts[i].predicted_type,
              replayed.verdicts[i].predicted_type);
  }
  // The scanner got quarantined in both.
  EXPECT_EQ(live.verdicts[0].final_zone, net::Zone::kQuarantined);
}

TEST(Integration, SimulatedHomeToPrivateBill) {
  // Meter a simulated home through the ZKP meter and verify the bill the
  // utility computes matches plain arithmetic on the true readings.
  Rng rng(105);
  const auto home =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 1}, 7, rng);
  const auto hourly = home.aggregate.resample(3600);

  const auto params = zkp::GroupParams::generate(40, 9);
  zkp::PrivateMeter meter(params, 10);
  std::uint64_t expected_bill = 0;
  const auto prices = zkp::time_of_use_prices(hourly.size(), 3600, 12, 30);
  for (std::size_t h = 0; h < hourly.size(); ++h) {
    const auto wh = static_cast<zkp::u64>(hourly[h] * 1000.0);
    meter.record(wh);
    expected_bill += prices[h] * wh;
  }
  const auto response = meter.bill_response(prices);
  EXPECT_EQ(response.bill, expected_bill);
  EXPECT_TRUE(
      zkp::verify_bill(params, meter.commitments(), prices, response));
}

TEST(Integration, KnobFrontierIsReproducible) {
  // The privacy evaluator must be deterministic given seeds — frontier
  // points from two identical runs agree exactly.
  Rng rng(106);
  const auto home =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 5, rng);
  const auto evaluator = core::PrivacyEvaluator::standard();
  core::NoiseDefense defense;
  const std::vector<double> intensities{0.0, 0.5, 1.0};
  Rng r1(7), r2(7);
  const auto a = evaluator.sweep(defense, home, intensities, r1);
  const auto b = evaluator.sweep(defense, home, intensities, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].billing_error, b[i].billing_error);
    for (const auto& [name, value] : a[i].leakage) {
      EXPECT_DOUBLE_EQ(value, b[i].leakage.at(name));
    }
  }
}

}  // namespace
}  // namespace pmiot
