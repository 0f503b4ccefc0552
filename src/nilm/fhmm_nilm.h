// FHMM-based NILM harness — the conventional baseline of Figure 2.
//
// Follows the REDD evaluation recipe the paper cites (Kolter & Johnson):
// learn one Markov chain per tracked appliance from *submetered training
// data*, estimate the meter's residual noise, then jointly decode the
// aggregate test trace with exact Viterbi over the factorial state space.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/fhmm.h"
#include "synth/home.h"

namespace pmiot::nilm {

struct FhmmNilmOptions {
  /// States per appliance chain (k-means discovers the power levels).
  int states_per_appliance = 2;
  /// Floor on the assumed aggregate observation noise (kW).
  double min_noise_kw = 0.05;
};

/// Trained FHMM disaggregator for a fixed appliance set.
class FhmmNilm {
 public:
  /// Learns chains for `tracked` appliance names from the submetered series
  /// in `training` (a HomeTrace covering the training period), and the
  /// observation noise from the training residual (aggregate minus tracked
  /// ground truth).
  FhmmNilm(const synth::HomeTrace& training,
           const std::vector<std::string>& tracked, Rng& rng,
           FhmmNilmOptions options = FhmmNilmOptions());

  /// Per-appliance estimated power for an aggregate test trace; parallel to
  /// the constructor's `tracked` list.
  std::vector<std::vector<double>> disaggregate(
      const ts::TimeSeries& aggregate) const;

  const std::vector<std::string>& tracked() const noexcept { return names_; }
  double noise_kw() const noexcept { return noise_kw_; }
  std::size_t joint_states() const noexcept {
    return fhmm_->joint_state_count();
  }
  /// The fitted model; its trailing one-state chain is the untracked
  /// background load.
  const ml::FactorialHmm& model() const noexcept { return *fhmm_; }

 private:
  std::vector<std::string> names_;
  double noise_kw_ = 0.0;
  std::unique_ptr<ml::FactorialHmm> fhmm_;
};

}  // namespace pmiot::nilm
