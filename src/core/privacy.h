// User-controllable privacy — the paper's own proposal (§III-E).
//
// "Some researchers have argued for an abstract 'knob' that is controlled
// by users and represents their privacy preferences." This module makes the
// knob concrete: a `Defense` is a tunable transformation of a home's
// metered data (intensity 0 = report raw data, 1 = maximum protection), an
// `Attack` measures what private information still leaks, and the
// `PrivacyEvaluator` sweeps the knob to produce the privacy-vs-utility
// frontier a user (or their gateway) would navigate.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "synth/home.h"
#include "timeseries/timeseries.h"

namespace pmiot::core {

/// What a defense produced for one home at one knob setting.
struct DefenseOutcome {
  ts::TimeSeries released;        ///< data the utility/cloud receives
  double extra_energy_kwh = 0.0;  ///< physical cost (battery losses, tank
                                  ///< standing losses, ...)
  std::string note;               ///< human-readable configuration summary
};

/// A tunable meter defense.
class Defense {
 public:
  virtual ~Defense() = default;

  /// Applies the defense at `intensity` in [0,1]. Intensity 0 must return
  /// data equivalent to the raw home aggregate.
  virtual DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                               Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

/// Opaque fitted per-home attacker state (labelled-history classifiers,
/// appliance model libraries, ...). A model depends only on the home's
/// ground truth — never on a defense or knob setting — so one fitted model
/// is reusable across every released trace derived from that home. This is
/// the unit the campaign layer's content-keyed model cache stores: a naive
/// cartesian sweep refits per cell, which the forest/kNN attackers make the
/// dominant cost.
// pmiot: sensitive — fitted attacker state is distilled from a home's
// ground truth and reconstructs it on demand.
class AttackModel {
 public:
  virtual ~AttackModel() = default;
};

/// A privacy attack scored against ground truth; returns leakage in [0,1]
/// (0 = attack learns nothing, 1 = attack fully succeeds).
class Attack {
 public:
  virtual ~Attack() = default;

  /// Fits per-home attacker state. Attacks with nothing to fit return
  /// nullptr (the default). Deterministic in `truth` (internal seeds are
  /// fixed), so fitted models are cacheable by home content.
  virtual std::unique_ptr<AttackModel> fit(const synth::HomeTrace& truth) const;

  /// Leakage given state from a prior fit() on the same home. `model` may
  /// be nullptr: stateful attacks then fit on the fly, so the result is
  /// identical either way.
  virtual double leakage_with(const AttackModel* model,
                              const ts::TimeSeries& released,
                              const synth::HomeTrace& truth) const = 0;

  /// Convenience single-shot scoring: fit() + leakage_with().
  double leakage(const ts::TimeSeries& released,
                 const synth::HomeTrace& truth) const;

  virtual std::string name() const = 0;
};

// --- Concrete attacks ------------------------------------------------------

/// NIOM occupancy detection; leakage = max(0, MCC) over waking hours.
class OccupancyAttack final : public Attack {
 public:
  double leakage_with(const AttackModel* model, const ts::TimeSeries& released,
                      const synth::HomeTrace& truth) const override;
  std::string name() const override { return "occupancy(NIOM)"; }
};

/// PowerPlay appliance tracking; leakage = mean over tracked appliances of
/// max(0, 1 - error_factor) (1 = perfect tracking). Tracks the appliances
/// in `tracked` that exist in the home. fit() builds the per-home model
/// library and tracker once.
class ApplianceAttack final : public Attack {
 public:
  explicit ApplianceAttack(std::vector<std::string> tracked = {
                               "fridge", "dryer", "toaster", "freezer"});
  std::unique_ptr<AttackModel> fit(
      const synth::HomeTrace& truth) const override;
  double leakage_with(const AttackModel* model, const ts::TimeSeries& released,
                      const synth::HomeTrace& truth) const override;
  std::string name() const override { return "appliances(NILM)"; }

 private:
  std::vector<std::string> tracked_;
};

/// Supervised occupancy attacker with a labelled per-home history (threat
/// model of niom::SupervisedNiom): fit() trains a k-NN or random-forest
/// window classifier on the home's raw trace, leakage_with() runs it on the
/// released trace. The fit is the expensive stage, which is exactly what a
/// population campaign's model cache amortizes. Leakage = max(0, MCC) over
/// waking hours, like OccupancyAttack.
class SupervisedOccupancyAttack final : public Attack {
 public:
  enum class Backend { kKnn, kForest };

  explicit SupervisedOccupancyAttack(Backend backend = Backend::kForest);
  std::unique_ptr<AttackModel> fit(
      const synth::HomeTrace& truth) const override;
  double leakage_with(const AttackModel* model, const ts::TimeSeries& released,
                      const synth::HomeTrace& truth) const override;
  std::string name() const override;

 private:
  Backend backend_;
};

// --- Concrete tunable defenses ---------------------------------------------

/// Moving-average reporting; intensity scales the window up to an hour.
class SmoothingDefense final : public Defense {
 public:
  DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                       Rng& rng) const override;
  std::string name() const override { return "smoothing"; }
};

/// Gaussian noise injection; intensity scales sigma up to `max_sigma_kw`.
class NoiseDefense final : public Defense {
 public:
  explicit NoiseDefense(double max_sigma_kw = 1.0);
  DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                       Rng& rng) const override;
  std::string name() const override { return "noise"; }

 private:
  double max_sigma_kw_;
};

/// Battery load-levelling; intensity scales how much deviation the battery
/// absorbs (see defense::apply_battery).
class BatteryLevelDefense final : public Defense {
 public:
  DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                       Rng& rng) const override;
  std::string name() const override { return "battery"; }
};

/// CHPr water-heater masking; intensity scales the thermal band the
/// controller may use above the conventional setpoint (0 = plain
/// thermostat, 1 = the full 70 C ceiling).
class ChprDefense final : public Defense {
 public:
  DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                       Rng& rng) const override;
  std::string name() const override { return "chpr"; }
};

// --- The evaluator ----------------------------------------------------------

/// One point on the privacy-utility frontier.
struct FrontierPoint {
  double intensity = 0.0;
  std::map<std::string, double> leakage;  ///< attack name -> leakage
  double billing_error = 0.0;    ///< |released - true| energy / true
  double analytics_error = 0.0;  ///< rel. RMSE of hourly profile (utility
                                 ///< analytics the defense should preserve)
  double extra_energy_kwh = 0.0; ///< physical cost
};

/// The reusable intensity-0 reference a sweep judges utility against: the
/// defense's own "off" output plus its precomputed hourly profile. Caching
/// this is the batch-friendly stage split — one baseline serves every knob
/// setting of a (defense, home) pair.
struct UtilityBaseline {
  DefenseOutcome outcome;
  ts::TimeSeries hourly;    ///< outcome.released resampled to 3600 s
  double mean_level = 0.0;  ///< mean of `hourly` (analytics normalizer)
};

/// Utility half of one frontier cell (the leakage half is written into a
/// caller-provided span in attacks() order by `score_into`).
struct UtilityScores {
  double billing_error = 0.0;
  double analytics_error = 0.0;
};

class PrivacyEvaluator {
 public:
  /// Takes ownership of the attack suite. Must be non-empty.
  explicit PrivacyEvaluator(std::vector<std::unique_ptr<Attack>> attacks);

  /// Builds the standard suite (occupancy + appliance attacks).
  static PrivacyEvaluator standard();

  /// Sweeps the knob for one defense over one home, the per-intensity
  /// points evaluated across `pmiot::par`'s shared pool. Point RNGs are
  /// forked from `rng` serially up front in intensity order, so the result
  /// is bitwise identical at any `PMIOT_THREADS`. Attacks must be safe to
  /// score concurrently (the built-in attacks are: leakage_with is const
  /// and fit() state is read-only after construction).
  std::vector<FrontierPoint> sweep(const Defense& defense,
                                   const synth::HomeTrace& home,
                                   std::span<const double> intensities,
                                   Rng& rng) const;

  // --- Batch-friendly stages (campaign/parallel drivers) -------------------
  //
  // `sweep` is exactly: baseline() once, fit_models() once, then per
  // intensity apply() + score_into(). Drivers that sweep thousands of homes
  // call the stages directly so traces, baselines, and fitted models are
  // computed once and reused across cells.

  /// Fits every attack's per-home model, in attacks() order (entries may be
  /// nullptr for stateless attacks).
  std::vector<std::unique_ptr<AttackModel>> fit_models(
      const synth::HomeTrace& home) const;

  /// Applies the defense at intensity 0 and precomputes the utility
  /// reference.
  UtilityBaseline baseline(const Defense& defense,
                           const synth::HomeTrace& home, Rng& rng) const;

  /// Scores one released trace against the baseline: utility metrics
  /// returned, per-attack leakage written to `leakage[k]` in attacks()
  /// order. `models` must be empty (fit on the fly) or parallel to
  /// attacks(); `leakage.size() >= attacks().size()`.
  UtilityScores score_into(
      const UtilityBaseline& base, const ts::TimeSeries& released,
      const synth::HomeTrace& home,
      std::span<const std::unique_ptr<AttackModel>> models,
      std::span<double> leakage) const;

  const std::vector<std::unique_ptr<Attack>>& attacks() const noexcept {
    return attacks_;
  }

 private:
  FrontierPoint point_from_stages(const UtilityBaseline& base,
                                  const Defense& defense,
                                  const synth::HomeTrace& home,
                                  double intensity, Rng& point_rng,
                                  std::span<const std::unique_ptr<AttackModel>>
                                      models) const;

  std::vector<std::unique_ptr<Attack>> attacks_;
};

}  // namespace pmiot::core
