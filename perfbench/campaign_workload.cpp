// `campaign`: `run_campaign` on the reference grid shape (3 archetypes x H
// homes x 3 defenses x 5 intensities; occupancy/appliances/forest attacks;
// 3 days), streaming every cell to a `pmiotcp` checkpoint in the run's
// working directory.
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/civil_time.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pmiot;

constexpr std::size_t kHomesPerArchetype = 32;
constexpr std::size_t kWarmupHomes = 2;

campaign::CampaignConfig reference_grid(std::uint64_t seed,
                                        std::size_t homes) {
  campaign::CampaignConfig config;  // the default axes are the reference grid
  config.homes_per_archetype = homes;
  config.base_seed = seed;
  return config;
}

// The traced recomposition re-derives run_campaign's seed chains so it
// draws the same traces and releases; whether it still does is reported as
// `trace.recompose_match`, not treated as a wrong output.
constexpr CivilDate kStart{2017, 6, 5};
constexpr std::uint64_t kTraceSalt = 0x70632d7472616365ULL;
constexpr std::uint64_t kCellSalt = 0x70632d63656c6c30ULL;

std::uint64_t home_chain(std::uint64_t base, std::uint64_t salt,
                         std::size_t archetype, std::size_t home) {
  return par::shard_seed(par::shard_seed(base ^ salt, archetype), home);
}

std::uint64_t defense_chain(std::uint64_t base, std::size_t archetype,
                            std::size_t home, std::size_t defense) {
  return par::shard_seed(home_chain(base, kCellSalt, archetype, home),
                         defense);
}

/// Registry attack with its fit and scoring calls inside spans.
class TracedAttack final : public core::Attack {
 public:
  TracedAttack(SpanRecorder& rec, std::unique_ptr<core::Attack> inner,
               const char* fit_span, const char* score_span)
      : rec_(rec),
        inner_(std::move(inner)),
        fit_span_(fit_span),
        score_span_(score_span) {}

  std::unique_ptr<core::AttackModel> fit(
      const synth::HomeTrace& truth) const override {
    ScopedSpan s(rec_, fit_span_, Layer::kCore);
    return inner_->fit(truth);
  }
  double leakage_with(const core::AttackModel* model,
                      const ts::TimeSeries& released,
                      const synth::HomeTrace& truth) const override {
    ScopedSpan s(rec_, score_span_, Layer::kCore);
    return inner_->leakage_with(model, released, truth);
  }
  std::string name() const override { return inner_->name(); }

 private:
  SpanRecorder& rec_;
  std::unique_ptr<core::Attack> inner_;
  const char* fit_span_;
  const char* score_span_;
};

/// Registry defense with `apply` inside a span.
class TracedDefense final : public core::Defense {
 public:
  TracedDefense(SpanRecorder& rec, std::unique_ptr<core::Defense> inner)
      : rec_(rec), inner_(std::move(inner)) {}

  core::DefenseOutcome apply(const synth::HomeTrace& home, double intensity,
                             Rng& rng) const override {
    ScopedSpan s(rec_, "defense.apply", Layer::kDefense);
    return inner_->apply(home, intensity, rng);
  }
  std::string name() const override { return inner_->name(); }

 private:
  SpanRecorder& rec_;
  std::unique_ptr<core::Defense> inner_;
};

/// Span names per registry attack (literals: spans outlive the attacks).
struct AttackSpans {
  const char* attack;
  const char* fit;
  const char* score;
};
constexpr AttackSpans kAttackSpans[] = {
    {"occupancy", "attack.occupancy.fit", "attack.occupancy.score"},
    {"appliances", "attack.appliances.fit", "attack.appliances.score"},
    {"forest", "attack.forest.fit", "attack.forest.score"},
};

std::unique_ptr<core::Attack> traced_attack(SpanRecorder& rec,
                                            const std::string& name) {
  for (const auto& spans : kAttackSpans) {
    if (name == spans.attack) {
      return std::make_unique<TracedAttack>(rec, campaign::make_attack(name),
                                            spans.fit, spans.score);
    }
  }
  throw std::invalid_argument("no spans for attack " + name);
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  const char* item_name() const override { return "cells"; }

  void setup() override {
    std::filesystem::create_directories(workdir_);
    config_ = reference_grid(seed_, kHomesPerArchetype);
    options_.checkpoint_path = workdir_ + "/campaign.pmiotcp";
    campaign::RunOptions warmup_options;
    warmup_options.checkpoint_path = workdir_ + "/warmup.pmiotcp";
    (void)campaign::run_campaign(reference_grid(seed_, kWarmupHomes),
                                 warmup_options);
  }

  double run_pass(OpTally& tally) override {
    const campaign::CampaignPlan plan(config_);
    campaign::CampaignResult result;
    if (!run_ops(tally, plan.total_cells(), [&] {
          result = campaign::run_campaign(config_, options_);
        })) {
      return 0.0;
    }
    const auto cells = static_cast<double>(result.cells_evaluated);
    if (!reference_) {
      reference_ =
          std::make_unique<campaign::CampaignResult>(std::move(result));
    } else if (const auto diff =
                   campaign::describe_divergence(*reference_, result);
               !diff.empty()) {
      pass_divergence_ = "passes differ: " + diff;
    }
    return cells;
  }

  std::string check() override {
    if (!pass_divergence_.empty()) return pass_divergence_;
    if (!reference_) return "no pass completed";
    const campaign::CampaignPlan plan(config_);
    for (std::uint64_t cell = 0; cell < plan.total_cells(); ++cell) {
      if (!reference_->done[cell]) {
        return "cell " + std::to_string(cell) + " not done";
      }
    }
    // The checkpoint the last pass streamed reloads to the same values.
    campaign::CampaignResult loaded;
    loaded.config = config_;
    loaded.values.assign(reference_->values.size(), 0.0);
    loaded.done.assign(reference_->done.size(), 0);
    const auto load = campaign::load_checkpoint(
        options_.checkpoint_path, plan, campaign::config_hash(config_),
        config_.base_seed, loaded.values, loaded.done);
    if (load.cells != plan.total_cells()) {
      return "checkpoint holds " + std::to_string(load.cells) + " of " +
             std::to_string(plan.total_cells()) + " cells";
    }
    if (auto diff = campaign::describe_divergence(*reference_, loaded);
        !diff.empty()) {
      return "checkpoint differs from the result: " + diff;
    }
    par::ThreadPool serial(1);
    const par::ScopedPoolOverride width_one(serial);
    const auto oracle = campaign::run_campaign(config_);
    if (auto diff = campaign::describe_divergence(*reference_, oracle);
        !diff.empty()) {
      return "campaign differs from its width-1 run: " + diff;
    }
    return "";
  }

  std::string traced_pass(SpanRecorder& rec, LayerMetrics& metrics,
                          OpTally& tally) override {
    const campaign::CampaignPlan plan(config_);
    campaign::CampaignResult result;
    result.config = config_;
    const std::string path = workdir_ + "/traced.pmiotcp";
    if (!run_ops(tally, plan.total_cells(),
                 [&] { result = recompose(rec, plan, path); })) {
      return "traced pass failed: " + tally.first_error;
    }

    const auto& spans = rec.spans();
    const auto threads = par::thread_count();
    double fits = 0.0;
    for (const auto& s : spans) {
      if (s.name == "attack.forest.fit") fits += 1.0;
    }
    metrics["campaign.forest_fits"] = fits;
    metrics["campaign.cells_per_fit"] =
        fits > 0.0 ? static_cast<double>(plan.total_cells()) / fits : 0.0;
    metrics["campaign.checkpoint.bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
    metrics["common.par.homes.busy_share"] =
        busy_share(spans, "common.par.homes", threads);
    metrics["common.par.cells.busy_share"] =
        busy_share(spans, "common.par.cells", threads);

    if (!reference_) return "no untraced pass to compare with";
    const auto diff = campaign::describe_divergence(*reference_, result);
    return diff.empty() ? "" : "recomposition differs from run_campaign: " +
                                   diff;
  }

 private:
  /// run_campaign's three phases per block of homes, with every layer call
  /// inside a span.
  campaign::CampaignResult recompose(SpanRecorder& rec,
                                     const campaign::CampaignPlan& plan,
                                     const std::string& path) const {
    const auto& config = config_;
    std::vector<std::unique_ptr<core::Attack>> attacks;
    for (const auto& name : config.attacks) {
      attacks.push_back(traced_attack(rec, name));
    }
    const core::PrivacyEvaluator evaluator(std::move(attacks));
    std::vector<std::unique_ptr<core::Defense>> defenses;
    for (const auto& name : config.defenses) {
      defenses.push_back(
          std::make_unique<TracedDefense>(rec, campaign::make_defense(name)));
    }

    const std::size_t A = plan.archetypes();
    const std::size_t H = plan.homes();
    const std::size_t D = plan.defenses();
    const std::size_t I = plan.intensities();
    const std::size_t P = plan.payload_doubles();

    campaign::CampaignResult result;
    result.config = config;
    result.values.assign(plan.total_cells() * P, 0.0);
    result.done.assign(plan.total_cells(), 0);
    campaign::CheckpointWriter writer(path, plan,
                                      campaign::config_hash(config),
                                      config.base_seed);

    struct Slot {
      synth::HomeTrace trace;
      std::vector<std::unique_ptr<core::AttackModel>> models;
      std::vector<core::UtilityBaseline> baselines;
    };
    const std::size_t block = std::min(config.block_homes, H);
    std::vector<Slot> slots(block);
    for (auto& slot : slots) slot.baselines.resize(D);

    for (std::size_t a = 0; a < A; ++a) {
      for (std::size_t b0 = 0; b0 < H; b0 += block) {
        const std::size_t n = std::min(block, H - b0);
        {
          ScopedSpan phase(rec, "common.par.homes", Layer::kPar);
          const auto parent = phase.id();
          par::parallel_for(0, n, [&](std::size_t j) {
            const std::size_t h = b0 + j;
            ScopedSpan request(rec, "campaign.home", Layer::kGroup,
                               a * H + h, parent);
            Slot& slot = slots[j];
            synth::HomeConfig home;
            {
              ScopedSpan s(rec, "campaign.archetype_home", Layer::kCampaign);
              home = campaign::archetype_home(config.archetypes[a], a, h,
                                              config.base_seed);
            }
            {
              ScopedSpan s(rec, "synth.simulate_home", Layer::kSynth);
              Rng sim_rng(home_chain(config.base_seed, kTraceSalt, a, h));
              slot.trace =
                  synth::simulate_home(home, kStart, config.days, sim_rng);
            }
            {
              ScopedSpan s(rec, "core.fit_models", Layer::kCore);
              slot.models = evaluator.fit_models(slot.trace);
            }
            for (std::size_t d = 0; d < D; ++d) {
              ScopedSpan s(rec, "core.baseline", Layer::kCore);
              Rng bl_rng(par::shard_seed(
                  defense_chain(config.base_seed, a, h, d), 0));
              slot.baselines[d] =
                  evaluator.baseline(*defenses[d], slot.trace, bl_rng);
            }
          });
        }
        {
          ScopedSpan phase(rec, "common.par.cells", Layer::kPar);
          const auto parent = phase.id();
          par::parallel_for(0, n * D * I, [&](std::size_t u) {
            const std::size_t j = u / (D * I);
            const std::size_t d = (u / I) % D;
            const std::size_t i = u % I;
            const std::size_t h = b0 + j;
            const std::uint64_t cell = plan.cell_id({a, h, d, i});
            ScopedSpan request(rec, "campaign.cell", Layer::kGroup, cell,
                               parent);
            const Slot& slot = slots[j];
            Rng point_rng(par::shard_seed(
                defense_chain(config.base_seed, a, h, d), 1 + i));
            const auto outcome = defenses[d]->apply(
                slot.trace, config.intensities[i], point_rng);
            double* out = result.values.data() + cell * P;
            ScopedSpan s(rec, "core.score_into", Layer::kCore);
            const auto scores = evaluator.score_into(
                slot.baselines[d], outcome.released, slot.trace, slot.models,
                std::span<double>(out + 3, P - 3));
            out[0] = scores.billing_error;
            out[1] = scores.analytics_error;
            out[2] = outcome.extra_energy_kwh;
          });
        }
        for (std::size_t u = 0; u < n * D * I; ++u) {
          const std::uint64_t cell =
              plan.cell_id({a, b0 + u / (D * I), (u / I) % D, u % I});
          result.done[cell] = 1;
          ++result.cells_evaluated;
          ScopedSpan s(rec, "campaign.checkpoint.append", Layer::kCampaign);
          writer.append(cell, std::span<const double>(
                                  result.values.data() + cell * P, P));
        }
        ScopedSpan s(rec, "campaign.checkpoint.flush", Layer::kCampaign);
        writer.flush();
      }
    }
    return result;
  }

  std::uint64_t seed_;
  std::string workdir_;
  campaign::CampaignConfig config_;
  campaign::RunOptions options_;
  std::unique_ptr<campaign::CampaignResult> reference_;
  std::string pass_divergence_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed,
                                                 const std::string& workdir) {
  return std::make_unique<CampaignWorkload>(seed, workdir);
}

}  // namespace perfbench
