#include "core/privacy.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "defense/battery.h"
#include "defense/chpr.h"
#include "defense/obfuscation.h"
#include "nilm/error.h"
#include "nilm/powerplay.h"
#include "niom/detector.h"
#include "niom/evaluate.h"
#include "synth/appliance.h"

namespace pmiot::core {
namespace {

void check_intensity(double intensity) {
  PMIOT_CHECK(intensity >= 0.0 && intensity <= 1.0,
              "intensity must be in [0,1]");
}

/// Fitted state of ApplianceAttack: the per-home PowerPlay tracker, the
/// ground-truth indices of the tracked appliances actually present, and
/// whether each of them ran at all in the home (only those are scored).
struct ApplianceAttackModel final : AttackModel {
  std::unique_ptr<nilm::PowerPlay> tracker;  ///< null: nothing trackable
  std::vector<std::size_t> truth_idx;
  std::vector<bool> ran;
};

/// Fitted state of SupervisedOccupancyAttack: the supervised detector,
/// trained on the home's raw labelled history.
struct SupervisedAttackModel final : AttackModel {
  explicit SupervisedAttackModel(niom::SupervisedNiom::Options options)
      : detector(options) {}
  niom::SupervisedNiom detector;
};

}  // namespace

std::unique_ptr<AttackModel> Attack::fit(const synth::HomeTrace&) const {
  return nullptr;
}

double Attack::leakage(const ts::TimeSeries& released,
                       const synth::HomeTrace& truth) const {
  return leakage_with(fit(truth).get(), released, truth);
}

double OccupancyAttack::leakage_with(const AttackModel*,
                                     const ts::TimeSeries& released,
                                     const synth::HomeTrace& truth) const {
  niom::ThresholdNiom detector;
  const auto report = niom::evaluate(detector, released, truth.occupancy,
                                     niom::waking_hours());
  return std::max(0.0, report.mcc);
}

ApplianceAttack::ApplianceAttack(std::vector<std::string> tracked)
    : tracked_(std::move(tracked)) {
  PMIOT_CHECK(!tracked_.empty(), "need at least one tracked appliance");
}

std::unique_ptr<AttackModel> ApplianceAttack::fit(
    const synth::HomeTrace& truth) const {
  // Build PowerPlay models for the tracked appliances present in the home.
  // The catalog is the a priori model library PowerPlay assumes.
  std::vector<nilm::LoadModel> models;
  auto fitted = std::make_unique<ApplianceAttackModel>();
  const std::vector<synth::ApplianceSpec> catalog = {
      synth::toaster(), synth::fridge(),  synth::freezer(),
      synth::dryer(),   synth::hrv(),     synth::dishwasher(),
      synth::washer(),  synth::cooktop(), synth::water_heater()};
  for (const auto& name : tracked_) {
    bool in_home = false;
    for (std::size_t i = 0; i < truth.appliance_names.size(); ++i) {
      if (truth.appliance_names[i] == name) {
        in_home = true;
        fitted->truth_idx.push_back(i);
        fitted->ran.push_back(truth.per_appliance[i].energy_kwh() > 0.0);
        break;
      }
    }
    if (!in_home) continue;
    for (const auto& spec : catalog) {
      if (spec.name == name) {
        models.push_back(nilm::LoadModel::from_spec(spec));
        break;
      }
    }
  }
  if (!models.empty()) {
    fitted->tracker = std::make_unique<nilm::PowerPlay>(std::move(models));
  }
  return fitted;
}

double ApplianceAttack::leakage_with(const AttackModel* model,
                                     const ts::TimeSeries& released,
                                     const synth::HomeTrace& truth) const {
  std::unique_ptr<AttackModel> local;
  if (model == nullptr) {
    local = fit(truth);
    model = local.get();
  }
  const auto& fitted = static_cast<const ApplianceAttackModel&>(*model);
  if (fitted.tracker == nullptr) return 0.0;

  const auto tracked = fitted.tracker->track(released);
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    if (!fitted.ran[i]) continue;
    const auto& actual = truth.per_appliance[fitted.truth_idx[i]];
    const double err =
        nilm::disaggregation_error(tracked[i].power, actual.values());
    total += std::max(0.0, 1.0 - std::min(err, 1.0));
    ++scored;
  }
  return scored == 0 ? 0.0 : total / static_cast<double>(scored);
}

SupervisedOccupancyAttack::SupervisedOccupancyAttack(Backend backend)
    : backend_(backend) {}

std::string SupervisedOccupancyAttack::name() const {
  return backend_ == Backend::kKnn ? "occupancy(kNN)" : "occupancy(forest)";
}

std::unique_ptr<AttackModel> SupervisedOccupancyAttack::fit(
    const synth::HomeTrace& truth) const {
  niom::SupervisedNiom::Options options;
  options.model = backend_;
  // A deeper ensemble than the detector default: this attacker models a
  // patient adversary with labelled history, and the one-time fit is
  // exactly what population sweeps cache per home.
  options.num_trees = 100;
  auto fitted = std::make_unique<SupervisedAttackModel>(options);
  fitted->detector.fit(truth.aggregate, truth.occupancy);
  return fitted;
}

double SupervisedOccupancyAttack::leakage_with(
    const AttackModel* model, const ts::TimeSeries& released,
    const synth::HomeTrace& truth) const {
  std::unique_ptr<AttackModel> local;
  if (model == nullptr) {
    local = fit(truth);
    model = local.get();
  }
  const auto& fitted = static_cast<const SupervisedAttackModel&>(*model);
  const auto report = niom::evaluate(fitted.detector, released,
                                     truth.occupancy, niom::waking_hours());
  return std::max(0.0, report.mcc);
}

DefenseOutcome SmoothingDefense::apply(const synth::HomeTrace& home,
                                       double intensity, Rng&) const {
  check_intensity(intensity);
  const int radius = static_cast<int>(std::lround(intensity * 30.0));
  DefenseOutcome out;
  out.released = defense::smooth_reporting(home.aggregate, radius);
  out.note = "moving average, radius " + std::to_string(radius) + " min";
  return out;
}

NoiseDefense::NoiseDefense(double max_sigma_kw) : max_sigma_kw_(max_sigma_kw) {
  PMIOT_CHECK(max_sigma_kw > 0.0, "max sigma must be positive");
}

DefenseOutcome NoiseDefense::apply(const synth::HomeTrace& home,
                                   double intensity, Rng& rng) const {
  check_intensity(intensity);
  const double sigma = intensity * max_sigma_kw_;
  DefenseOutcome out;
  out.released = defense::inject_noise(home.aggregate, sigma, rng);
  out.note = "gaussian noise, sigma " + format_double(sigma, 2) + " kW";
  return out;
}

DefenseOutcome BatteryLevelDefense::apply(const synth::HomeTrace& home,
                                          double intensity, Rng&) const {
  check_intensity(intensity);
  auto result = defense::apply_battery(home.aggregate, defense::BatteryOptions{},
                                       intensity);
  DefenseOutcome out;
  out.released = std::move(result.metered);
  out.extra_energy_kwh = result.losses_kwh;
  out.note = "battery levelling at " + format_double(intensity, 2) +
             " of deviation";
  return out;
}

DefenseOutcome ChprDefense::apply(const synth::HomeTrace& home,
                                  double intensity, Rng& rng) const {
  check_intensity(intensity);

  // The home the CHPr controller sees excludes any uncontrolled water
  // heater (CHPr owns the tank).
  ts::TimeSeries base = home.aggregate;
  for (std::size_t i = 0; i < home.appliance_names.size(); ++i) {
    if (home.appliance_names[i] == "water_heater") {
      base -= home.per_appliance[i];
      base.clamp_min(0.0);
    }
  }
  // Draws depend only on the home so a knob sweep compares like to like.
  Rng draw_rng(0xD0A5ULL ^ (home.occupancy.size() * 2654435761ULL));
  auto draws = defense::simulate_hot_water_draws(home.occupancy, draw_rng);

  defense::ChprOptions options;
  // Intensity widens the controller's usable band above the setpoint.
  options.tank.max_temp_c =
      options.tank.setpoint_c +
      intensity * (70.0 - options.tank.setpoint_c);

  DefenseOutcome out;
  if (intensity <= 0.0) {
    // Plain thermostat: no masking, just the conventional heater load.
    const auto heater = defense::thermostat_schedule(options.tank, draws);
    ts::TimeSeries released = base;
    for (std::size_t t = 0; t < released.size(); ++t) released[t] += heater[t];
    out.released = std::move(released);
    out.note = "conventional thermostat";
    return out;
  }

  auto result = defense::apply_chpr(base, draws, options, rng);
  // Cost: CHPr's energy beyond what the conventional thermostat would use.
  const auto conventional = defense::thermostat_schedule(options.tank, draws);
  double conventional_kwh = 0.0;
  for (double kw : conventional) conventional_kwh += kw / 60.0;
  out.extra_energy_kwh =
      std::max(0.0, result.heater_energy_kwh - conventional_kwh);
  out.released = std::move(result.masked);
  out.note = "CHPr, ceiling " + format_double(options.tank.max_temp_c, 1) +
             " C";
  return out;
}

PrivacyEvaluator::PrivacyEvaluator(
    std::vector<std::unique_ptr<Attack>> attacks)
    : attacks_(std::move(attacks)) {
  PMIOT_CHECK(!attacks_.empty(), "need at least one attack");
}

PrivacyEvaluator PrivacyEvaluator::standard() {
  std::vector<std::unique_ptr<Attack>> attacks;
  attacks.push_back(std::make_unique<OccupancyAttack>());
  attacks.push_back(std::make_unique<ApplianceAttack>());
  return PrivacyEvaluator(std::move(attacks));
}

std::vector<std::unique_ptr<AttackModel>> PrivacyEvaluator::fit_models(
    const synth::HomeTrace& home) const {
  std::vector<std::unique_ptr<AttackModel>> models;
  models.reserve(attacks_.size());
  for (const auto& attack : attacks_) models.push_back(attack->fit(home));
  return models;
}

UtilityBaseline PrivacyEvaluator::baseline(const Defense& defense,
                                           const synth::HomeTrace& home,
                                           Rng& rng) const {
  // Utility metrics are judged against the defense's own intensity-0 output
  // (for physical defenses like CHPr, even "off" replaces the home's water
  // heater with the conventional thermostat, which must not count as error).
  UtilityBaseline base;
  base.outcome = defense.apply(home, 0.0, rng);
  base.hourly = base.outcome.released.resample(3600);
  base.mean_level = stats::mean(base.hourly.values());
  return base;
}

UtilityScores PrivacyEvaluator::score_into(
    const UtilityBaseline& base, const ts::TimeSeries& released,
    const synth::HomeTrace& home,
    std::span<const std::unique_ptr<AttackModel>> models,
    std::span<double> leakage) const {
  PMIOT_CHECK(models.empty() || models.size() == attacks_.size(),
              "models must be empty or parallel to the attack suite");
  PMIOT_CHECK(leakage.size() >= attacks_.size(),
              "leakage span smaller than the attack suite");
  UtilityScores scores;
  scores.billing_error =
      defense::billing_error(base.outcome.released, released);
  // Analytics the utility legitimately wants: the hourly load profile.
  const auto released_hourly = released.resample(3600);
  scores.analytics_error =
      base.mean_level > 0.0
          ? stats::rmse(base.hourly.values(), released_hourly.values()) /
                base.mean_level
          : 0.0;
  for (std::size_t k = 0; k < attacks_.size(); ++k) {
    const AttackModel* model = models.empty() ? nullptr : models[k].get();
    leakage[k] = attacks_[k]->leakage_with(model, released, home);
  }
  return scores;
}

FrontierPoint PrivacyEvaluator::point_from_stages(
    const UtilityBaseline& base, const Defense& defense,
    const synth::HomeTrace& home, double intensity, Rng& point_rng,
    std::span<const std::unique_ptr<AttackModel>> models) const {
  const auto outcome = defense.apply(home, intensity, point_rng);
  FrontierPoint point;
  point.intensity = intensity;
  point.extra_energy_kwh = outcome.extra_energy_kwh;
  std::vector<double> leakage(attacks_.size(), 0.0);
  const UtilityScores scores =
      score_into(base, outcome.released, home, models, leakage);
  point.billing_error = scores.billing_error;
  point.analytics_error = scores.analytics_error;
  for (std::size_t k = 0; k < attacks_.size(); ++k) {
    point.leakage[attacks_[k]->name()] = leakage[k];
  }
  return point;
}

std::vector<FrontierPoint> PrivacyEvaluator::sweep(
    const Defense& defense, const synth::HomeTrace& home,
    std::span<const double> intensities, Rng& rng) const {
  PMIOT_CHECK(!intensities.empty(), "need at least one intensity");
  Rng baseline_rng = rng.fork();
  const UtilityBaseline base = baseline(defense, home, baseline_rng);
  const auto models = fit_models(home);
  // Fork the per-point streams serially in intensity order, so each point's
  // draws depend on its position only; each shard then owns an
  // independent, pre-seeded Rng.
  std::vector<Rng> point_rngs;
  point_rngs.reserve(intensities.size());
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    point_rngs.push_back(rng.fork());
  }
  std::vector<FrontierPoint> frontier(intensities.size());
  par::parallel_for(0, intensities.size(), [&](std::size_t i) {
    frontier[i] = point_from_stages(base, defense, home, intensities[i],
                                    point_rngs[i], models);
  });
  return frontier;
}

}  // namespace pmiot::core
