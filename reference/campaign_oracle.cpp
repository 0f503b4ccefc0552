#include "reference/campaign_oracle.h"

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"

namespace pmiot::reference {

campaign::CampaignResult run_campaign_serial(
    const campaign::CampaignConfig& config) {
  const campaign::CampaignPlan plan(config);
  const core::PrivacyEvaluator evaluator = campaign::make_evaluator(config);
  std::vector<std::unique_ptr<core::Defense>> defenses;
  for (const auto& name : config.defenses) {
    defenses.push_back(campaign::make_defense(name));
  }

  const std::size_t P = plan.payload_doubles();
  campaign::CampaignResult result;
  result.config = config;
  result.values.assign(plan.total_cells() * P, 0.0);
  result.done.assign(plan.total_cells(), 0);

  for (std::size_t a = 0; a < plan.archetypes(); ++a) {
    for (std::size_t h = 0; h < plan.homes(); ++h) {
      const auto trace = campaign::simulate_campaign_home(config, a, h);
      const auto models = evaluator.fit_models(trace);
      for (std::size_t d = 0; d < plan.defenses(); ++d) {
        Rng bl_rng(campaign::baseline_seed(config, {a, h, d, 0}));
        const auto base = evaluator.baseline(*defenses[d], trace, bl_rng);
        for (std::size_t i = 0; i < plan.intensities(); ++i) {
          const campaign::CellRef ref{a, h, d, i};
          const std::uint64_t cell = plan.cell_id(ref);
          Rng point_rng(campaign::point_seed(config, ref));
          const auto outcome =
              defenses[d]->apply(trace, config.intensities[i], point_rng);
          double* out = result.values.data() + cell * P;
          const auto scores = evaluator.score_into(
              base, outcome.released, trace, models,
              std::span<double>(out + 3, P - 3));
          out[0] = scores.billing_error;
          out[1] = scores.analytics_error;
          out[2] = outcome.extra_energy_kwh;
          result.done[cell] = 1;
          ++result.cells_evaluated;
        }
      }
    }
  }
  return result;
}

}  // namespace pmiot::reference
