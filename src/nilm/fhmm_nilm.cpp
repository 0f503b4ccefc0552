#include "nilm/fhmm_nilm.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace pmiot::nilm {

FhmmNilm::FhmmNilm(const synth::HomeTrace& training,
                   const std::vector<std::string>& tracked, Rng& rng,
                   FhmmNilmOptions options) {
  PMIOT_CHECK(!tracked.empty(), "need at least one tracked appliance");
  PMIOT_CHECK(options.states_per_appliance >= 2,
              "appliances need at least on/off states");

  std::vector<ml::ApplianceChain> chains;
  ts::TimeSeries tracked_total = training.aggregate;  // copy meta/size
  for (auto& v : tracked_total.mutable_values()) v = 0.0;

  for (const auto& name : tracked) {
    const auto idx = training.appliance_index(name);
    const auto& sub = training.per_appliance[idx];
    chains.push_back(
        ml::learn_chain(name, sub.values(), options.states_per_appliance, rng));
    tracked_total += sub;
    names_.push_back(name);
  }

  // Observation noise = residual between what the meter reads and what the
  // modelled appliances draw (covers untracked loads + meter noise).
  std::vector<double> residual(training.aggregate.size());
  for (std::size_t t = 0; t < residual.size(); ++t) {
    residual[t] = training.aggregate[t] - tracked_total[t];
  }
  noise_kw_ = std::max(options.min_noise_kw, stats::stddev(residual));

  // Decoding against an aggregate that includes untracked load means the
  // observation has a positive bias equal to the residual mean; fold that
  // bias into the model by adding it as a constant to every joint state via
  // a one-state "background" chain.
  const double background = std::max(0.0, stats::mean(residual));
  ml::ApplianceChain bg;
  bg.name = "(background)";
  bg.state_power = {background};
  bg.initial = {1.0};
  bg.transition = {{1.0}};
  chains.push_back(std::move(bg));

  fhmm_ = std::make_unique<ml::FactorialHmm>(std::move(chains), noise_kw_);
}

std::vector<std::vector<double>> FhmmNilm::disaggregate(
    const ts::TimeSeries& aggregate) const {
  auto decoding = fhmm_->decode(aggregate.values());
  // Drop the trailing background chain from the result.
  decoding.appliance_power.resize(names_.size());
  return std::move(decoding.appliance_power);
}

}  // namespace pmiot::nilm
