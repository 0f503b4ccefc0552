// Non-Intrusive Occupancy Monitoring (NIOM) — the paper's §II-A attack.
//
// Detectors take only the aggregate smart-meter trace and emit per-sample
// 0/1 occupancy estimates. Two families from the literature the paper
// cites are implemented:
//   * ThresholdNiom — Chen et al. (BuildSys'13): per-window mean/variance
//     features compared against thresholds calibrated on overnight
//     background usage.
//   * HmmNiom — Kleiminger et al. (BuildSys'13): unsupervised 2-state
//     Gaussian HMM over window features, higher-power state = occupied.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/civil_time.h"
#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "timeseries/timeseries.h"

namespace pmiot::niom {

/// The minute-of-day window a detection is scored over. The literature the
/// paper cites (and its own Figure 1, which plots 8am-11pm) scores
/// detection during waking hours: overnight the home is occupied but
/// electrically indistinguishable from vacant, which is a labelling
/// artifact rather than detector error.
struct EvaluateOptions {
  int score_start_minute = 0;              ///< inclusive, minute of day
  int score_end_minute = kMinutesPerDay;   ///< exclusive
};

/// The 8am-11pm waking-hours window used by the paper's figures.
inline EvaluateOptions waking_hours() {
  return EvaluateOptions{8 * 60, 23 * 60};
}

/// Throws InvalidArgument unless
/// 0 <= score_start_minute < score_end_minute <= kMinutesPerDay.
void check_scoring_window(const EvaluateOptions& window);

/// Interface shared by occupancy detectors (and reused by the core privacy
/// evaluator as the canonical occupancy *attack*).
// pmiot: sensitive — a fitted detector and its detect() output are
// occupancy estimates; treat them with the same custody as occupancy.
class OccupancyDetector {
 public:
  virtual ~OccupancyDetector() = default;

  /// Per-sample 0/1 occupancy estimate, same length/resolution as `power`,
  /// with every sample's label specified (the whole day is scored).
  /// Requires at least one full detection window of samples.
  std::vector<int> detect(const ts::TimeSeries& power) const {
    return detect(power, EvaluateOptions{});
  }

  /// Same, for a caller that reads only the labels of samples whose
  /// minute of day falls in `scored` (a valid window, see
  /// check_scoring_window). Those labels equal `detect(power)`'s; labels
  /// of the other samples are unspecified, so a detector whose windows
  /// are classified independently may skip the windows no scored sample
  /// reads.
  virtual std::vector<int> detect(const ts::TimeSeries& power,
                                  const EvaluateOptions& scored) const = 0;

  virtual std::string name() const = 0;
};

/// Chen-style threshold detector.
class ThresholdNiom final : public OccupancyDetector {
 public:
  struct Options {
    int window_minutes = 15;  ///< feature window
    /// Threshold = night median + factor * night spread, per feature.
    double mean_factor = 2.0;
    double stddev_factor = 2.5;
    /// Overnight calibration window, minutes of day [night_start, night_end).
    int night_start_minute = 2 * 60;
    int night_end_minute = 5 * 60;
    /// Median-smooth the per-window decisions with this half-width.
    int smooth_radius = 1;
  };

  ThresholdNiom() : ThresholdNiom(Options{}) {}
  explicit ThresholdNiom(Options options);

  /// Labels every sample: the night calibration and the smoothing read
  /// windows outside any scoring window.
  using OccupancyDetector::detect;
  std::vector<int> detect(const ts::TimeSeries& power,
                          const EvaluateOptions& scored) const override;
  std::string name() const override { return "niom-threshold"; }

 private:
  Options options_;
};

/// Supervised window classifier (Kleiminger et al. also evaluated
/// supervised classifiers). Threat model: the attacker has a short labelled
/// history for the target home (e.g. from a prior occupancy leak, social
/// media, or a few days of physical observation) and trains per-window
/// features against it. The fit is the expensive stage — campaign sweeps
/// fit once per home and reuse the fitted detector across every released
/// trace derived from that home.
///
/// When the training trace holds only one occupancy class in its
/// waking-hours windows there is nothing to learn: fit() degrades to a
/// constant detector that always answers the observed class, which scores
/// zero MCC — the right leakage for an attacker whose history carries no
/// signal.
///
/// Each window is classified on its own features, so detection classifies
/// only the windows a scored sample reads: a window is classified when any
/// sample it labels has its minute of day in the scoring window, and every
/// other window is labelled 0. Tail rule: the samples after the last full
/// window carry the last window's label, so the last window is classified
/// when any of them is scored, even if its own samples are not.
class SupervisedNiom final : public OccupancyDetector {
 public:
  /// k-NN over standardized features, or bagged trees on the raw features.
  enum class Model { kKnn, kForest };

  struct Options {
    int window_minutes = 15;
    Model model = Model::kKnn;
    int k = 7;                ///< kKnn: neighbours
    int num_trees = 25;       ///< kForest: ensemble size
    std::uint64_t seed = 11;  ///< kForest: bootstrap/feature-subset seed
  };

  SupervisedNiom() : SupervisedNiom(Options{}) {}
  explicit SupervisedNiom(Options options);

  /// Trains on a labelled trace (per-minute ground-truth occupancy).
  /// Must be called before detect().
  void fit(const ts::TimeSeries& power,
           const std::vector<int>& occupancy_minutes);

  using OccupancyDetector::detect;
  std::vector<int> detect(const ts::TimeSeries& power,
                          const EvaluateOptions& scored) const override;
  std::string name() const override;

  bool fitted() const noexcept { return fitted_; }

 private:
  Options options_;
  ml::KnnClassifier knn_;
  ml::StandardScaler scaler_;
  ml::RandomForest forest_;
  bool fitted_ = false;
  int constant_label_ = -1;  ///< >= 0: single-class degradation
};

/// Kleiminger-style unsupervised HMM detector.
class HmmNiom final : public OccupancyDetector {
 public:
  struct Options {
    int window_minutes = 15;
    int em_iterations = 30;
    std::uint64_t seed = 17;  ///< k-means init inside the HMM
  };

  HmmNiom() : HmmNiom(Options{}) {}
  explicit HmmNiom(Options options);

  /// Labels every sample: Viterbi decodes the whole window sequence.
  using OccupancyDetector::detect;
  std::vector<int> detect(const ts::TimeSeries& power,
                          const EvaluateOptions& scored) const override;
  std::string name() const override { return "niom-hmm"; }

 private:
  Options options_;
};

}  // namespace pmiot::niom
