#include "campaign/campaign.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

#include "campaign/checkpoint.h"
#include "campaign/config_text.h"
#include "common/civil_time.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "synth/appliance.h"

namespace pmiot::campaign {
namespace {

obs::Counter& cells_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("campaign.cells_evaluated");
  return c;
}

obs::Counter& traces_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("campaign.traces_built");
  return c;
}

obs::Counter& models_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("campaign.models_fitted");
  return c;
}

obs::Counter& resumed_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "campaign.checkpoint_cells_loaded");
  return c;
}

obs::Counter& appended_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "campaign.checkpoint_records_appended");
  return c;
}

obs::Counter& checkpoint_bytes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("campaign.checkpoint.bytes");
  return c;
}

obs::Timer& apply_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("defense.apply");
  return t;
}

obs::Timer& baseline_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("core.baseline");
  return t;
}

obs::Timer& append_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("campaign.checkpoint.append");
  return t;
}

/// Registry attack whose fit and scoring feed the timers
/// `attack.<registry name>.fit` / `.score`, registered once per attack.
class TimedAttack final : public core::Attack {
 public:
  TimedAttack(std::unique_ptr<core::Attack> inner, const std::string& name)
      : inner_(std::move(inner)),
        fit_timer_(obs::MetricsRegistry::instance().timer("attack." + name +
                                                          ".fit")),
        score_timer_(obs::MetricsRegistry::instance().timer("attack." + name +
                                                            ".score")) {}

  std::unique_ptr<core::AttackModel> fit(
      const synth::HomeTrace& truth) const override {
    obs::ScopedTimer span(fit_timer_);
    return inner_->fit(truth);
  }
  double leakage_with(const core::AttackModel* model,
                      const ts::TimeSeries& released,
                      const synth::HomeTrace& truth) const override {
    obs::ScopedTimer span(score_timer_);
    return inner_->leakage_with(model, released, truth);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::Attack> inner_;
  obs::Timer& fit_timer_;
  obs::Timer& score_timer_;
};

/// Every home starts on the same civil Monday; the horizon, not the
/// calendar, is the knob.
constexpr CivilDate kStart{2017, 6, 5};

// --- Seed chains ------------------------------------------------------------
//
// Every random stream in a campaign derives from `base_seed` through
// `par::shard_seed` chains keyed by grid coordinates only (see campaign.h).

constexpr std::uint64_t kHomeSalt = 0x70632d686f6d6530ULL;
constexpr std::uint64_t kTraceSalt = 0x70632d7472616365ULL;
constexpr std::uint64_t kCellSalt = 0x70632d63656c6c30ULL;

std::uint64_t home_chain(std::uint64_t base, std::uint64_t salt,
                         std::size_t archetype, std::size_t home) {
  return par::shard_seed(par::shard_seed(base ^ salt, archetype), home);
}

std::uint64_t defense_chain(std::uint64_t base, const CellRef& cell) {
  return par::shard_seed(home_chain(base, kCellSalt, cell.archetype, cell.home),
                         cell.defense);
}

// --- Config text (campaign/config_text.h) -----------------------------------

constexpr const char* kWhat = "campaign config";

using text::fmt_double;
using text::join;

void validate(const CampaignConfig& config) {
  PMIOT_CHECK(!config.archetypes.empty(), "campaign needs >= 1 archetype");
  PMIOT_CHECK(!config.defenses.empty(), "campaign needs >= 1 defense");
  PMIOT_CHECK(!config.attacks.empty(), "campaign needs >= 1 attack");
  PMIOT_CHECK(!config.intensities.empty(), "campaign needs >= 1 intensity");
  for (double i : config.intensities) {
    PMIOT_CHECK(i >= 0.0 && i <= 1.0, "intensities must lie in [0, 1]");
  }
  PMIOT_CHECK(config.homes_per_archetype >= 1, "campaign needs >= 1 home");
  PMIOT_CHECK(config.days >= 1, "campaign needs >= 1 day");
  PMIOT_CHECK(config.block_homes >= 1, "block_homes must be >= 1");
  // Cell ids are 64-bit; a grid whose cell count would wrap is rejected.
  std::uint64_t cells = 1;
  for (const std::uint64_t n :
       {std::uint64_t{config.archetypes.size()},
        std::uint64_t{config.homes_per_archetype},
        std::uint64_t{config.defenses.size()},
        std::uint64_t{config.intensities.size()}}) {
    PMIOT_CHECK(cells <= UINT64_MAX / n,
                "campaign grid has more cells than a 64-bit cell id holds");
    cells *= n;
  }
}

}  // namespace

CampaignConfig parse_config(const std::string& text) {
  CampaignConfig config;
  text::for_each_entry(text, kWhat, [&](const std::string& key,
                                        const std::string& value) {
    if (key == "archetypes") {
      config.archetypes = text::split_list(value, kWhat);
    } else if (key == "defenses") {
      config.defenses = text::split_list(value, kWhat);
    } else if (key == "attacks") {
      config.attacks = text::split_list(value, kWhat);
    } else if (key == "intensities") {
      config.intensities = text::parse_doubles(value, kWhat);
    } else if (key == "homes") {
      config.homes_per_archetype =
          static_cast<std::size_t>(text::parse_u64(value, kWhat));
    } else if (key == "days") {
      config.days = text::parse_int(value, kWhat);
    } else if (key == "seed") {
      config.base_seed = text::parse_u64(value, kWhat);
    } else if (key == "block_homes") {
      config.block_homes =
          static_cast<std::size_t>(text::parse_u64(value, kWhat));
    } else {
      PMIOT_CHECK(false, "unknown campaign config key: " + key);
    }
  });
  validate(config);
  return config;
}

std::string canonical_text(const CampaignConfig& config) {
  std::ostringstream os;
  os << "archetypes = " << join(config.archetypes) << '\n';
  os << "attacks = " << join(config.attacks) << '\n';
  os << "block_homes = " << config.block_homes << '\n';
  os << "days = " << config.days << '\n';
  os << "defenses = " << join(config.defenses) << '\n';
  os << "homes = " << config.homes_per_archetype << '\n';
  os << "intensities = " << join(config.intensities) << '\n';
  os << "seed = " << config.base_seed << '\n';
  return os.str();
}

std::uint64_t config_hash(const CampaignConfig& config) {
  return text::fnv1a64(canonical_text(config));
}

// --- Registries -------------------------------------------------------------

synth::HomeConfig archetype_home(const std::string& archetype,
                                 std::size_t archetype_index,
                                 std::size_t home_index,
                                 std::uint64_t base_seed) {
  const std::uint64_t cfg_seed =
      home_chain(base_seed, kHomeSalt, archetype_index, home_index);
  Rng rng(cfg_seed);
  synth::HomeConfig c;
  c.name = archetype + "-" + std::to_string(home_index);
  c.appliances = {synth::phantom_base(), synth::fridge(), synth::lights(),
                  synth::tv(),           synth::microwave(),
                  synth::misc_plugs()};
  if (archetype == "commuter") {
    // The demographic the paper's NIOM studies were run on: out at work
    // most weekdays, habits jittered per household.
    c.occupancy.employed = true;
    c.occupancy.weekday_leave_min = rng.uniform(6.5 * 60, 9.0 * 60);
    c.occupancy.weekday_return_min = rng.uniform(15.5 * 60, 18.5 * 60);
    c.occupancy.wfh_probability = rng.uniform(0.05, 0.25);
    c.occupancy.evening_out_probability = rng.uniform(0.15, 0.45);
    c.occupancy.weekend_errands_mean = rng.uniform(1.2, 3.0);
    if (rng.bernoulli(0.6)) c.appliances.push_back(synth::freezer());
    if (rng.bernoulli(0.7)) c.appliances.push_back(synth::cooktop());
    if (rng.bernoulli(0.5)) c.appliances.push_back(synth::dryer());
    if (rng.bernoulli(0.5)) c.appliances.push_back(synth::washer());
    if (rng.bernoulli(0.6)) c.appliances.push_back(synth::dishwasher());
    if (rng.bernoulli(0.7)) c.appliances.push_back(synth::computer());
  } else if (archetype == "family") {
    // Earlier returns (school pickups), bigger appliance park, more
    // weekend activity.
    c.occupancy.employed = true;
    c.occupancy.weekday_leave_min = rng.uniform(7.0 * 60, 8.5 * 60);
    c.occupancy.weekday_return_min = rng.uniform(14.5 * 60, 16.5 * 60);
    c.occupancy.wfh_probability = rng.uniform(0.10, 0.30);
    c.occupancy.evening_out_probability = rng.uniform(0.10, 0.25);
    c.occupancy.weekend_errands_mean = rng.uniform(2.0, 4.0);
    c.appliances.push_back(synth::cooktop());
    c.appliances.push_back(synth::dryer());
    c.appliances.push_back(synth::washer());
    c.appliances.push_back(synth::dishwasher());
    if (rng.bernoulli(0.8)) c.appliances.push_back(synth::freezer());
    if (rng.bernoulli(0.6)) c.appliances.push_back(synth::water_heater());
    if (rng.bernoulli(0.5)) c.appliances.push_back(synth::hrv());
    if (rng.bernoulli(0.6)) c.appliances.push_back(synth::toaster());
  } else if (archetype == "wfh") {
    // Home-centric household (work-from-home / retired): no commute, so
    // short horizons can be occupied throughout — the single-class
    // degradation path of the supervised attackers is part of this
    // archetype's contract.
    c.occupancy.employed = false;
    c.occupancy.evening_out_probability = rng.uniform(0.20, 0.50);
    c.occupancy.weekend_errands_mean = rng.uniform(1.5, 3.5);
    c.appliances.push_back(synth::computer());
    if (rng.bernoulli(0.6)) c.appliances.push_back(synth::cooktop());
    if (rng.bernoulli(0.5)) c.appliances.push_back(synth::hrv());
    if (rng.bernoulli(0.4)) c.appliances.push_back(synth::toaster());
  } else {
    PMIOT_CHECK(false, "unknown archetype '" + archetype +
                           "' (known: commuter, family, wfh)");
  }
  auto& base = c.appliances.front();
  base.standby_kw = rng.uniform(0.04, 0.18);
  return c;
}

std::unique_ptr<core::Defense> make_defense(const std::string& name) {
  if (name == "smoothing") return std::make_unique<core::SmoothingDefense>();
  if (name == "noise") return std::make_unique<core::NoiseDefense>();
  if (name == "battery") return std::make_unique<core::BatteryLevelDefense>();
  if (name == "chpr") return std::make_unique<core::ChprDefense>();
  PMIOT_CHECK(false, "unknown defense '" + name +
                         "' (known: smoothing, noise, battery, chpr)");
  return nullptr;  // unreachable
}

std::unique_ptr<core::Attack> make_attack(const std::string& name) {
  if (name == "occupancy") return std::make_unique<core::OccupancyAttack>();
  if (name == "appliances") return std::make_unique<core::ApplianceAttack>();
  if (name == "knn") {
    return std::make_unique<core::SupervisedOccupancyAttack>(
        core::SupervisedOccupancyAttack::Backend::kKnn);
  }
  if (name == "forest") {
    return std::make_unique<core::SupervisedOccupancyAttack>(
        core::SupervisedOccupancyAttack::Backend::kForest);
  }
  PMIOT_CHECK(false, "unknown attack '" + name +
                         "' (known: occupancy, appliances, knn, forest)");
  return nullptr;  // unreachable
}

core::PrivacyEvaluator make_evaluator(const CampaignConfig& config) {
  std::vector<std::unique_ptr<core::Attack>> attacks;
  attacks.reserve(config.attacks.size());
  for (const auto& name : config.attacks) {
    attacks.push_back(std::make_unique<TimedAttack>(make_attack(name), name));
  }
  return core::PrivacyEvaluator(std::move(attacks));
}

// --- Seed-chain accessors ---------------------------------------------------

synth::HomeTrace simulate_campaign_home(const CampaignConfig& config,
                                        std::size_t archetype,
                                        std::size_t home) {
  Rng rng(home_chain(config.base_seed, kTraceSalt, archetype, home));
  return synth::simulate_home(
      archetype_home(config.archetypes[archetype], archetype, home,
                     config.base_seed),
      kStart, config.days, rng);
}

std::uint64_t baseline_seed(const CampaignConfig& config, const CellRef& cell) {
  return par::shard_seed(defense_chain(config.base_seed, cell), 0);
}

std::uint64_t point_seed(const CampaignConfig& config, const CellRef& cell) {
  return par::shard_seed(defense_chain(config.base_seed, cell),
                         1 + cell.intensity);
}

// --- The plan ---------------------------------------------------------------

CampaignPlan::CampaignPlan(const CampaignConfig& config)
    : archetypes_(config.archetypes.size()),
      homes_(config.homes_per_archetype),
      defenses_(config.defenses.size()),
      intensities_(config.intensities.size()),
      payload_doubles_(3 + config.attacks.size()) {
  validate(config);
  total_cells_ = static_cast<std::uint64_t>(archetypes_) * homes_ *
                 defenses_ * intensities_;
}

std::uint64_t CampaignPlan::cell_id(const CellRef& ref) const noexcept {
  return ((static_cast<std::uint64_t>(ref.archetype) * homes_ + ref.home) *
              defenses_ +
          ref.defense) *
             intensities_ +
         ref.intensity;
}

CellRef CampaignPlan::decode(std::uint64_t cell_id) const noexcept {
  CellRef ref;
  ref.intensity = static_cast<std::size_t>(cell_id % intensities_);
  cell_id /= intensities_;
  ref.defense = static_cast<std::size_t>(cell_id % defenses_);
  cell_id /= defenses_;
  ref.home = static_cast<std::size_t>(cell_id % homes_);
  ref.archetype = static_cast<std::size_t>(cell_id / homes_);
  return ref;
}

// --- Running ----------------------------------------------------------------

namespace {

/// Per-home block-resident state. Slots (and their heap capacity) are
/// reused across blocks — the campaign-layer arena in the style of
/// `fleet::make_home_into`.
struct HomeSlot {
  synth::HomeTrace trace;
  std::vector<std::unique_ptr<core::AttackModel>> models;
  std::vector<core::UtilityBaseline> baselines;  // one per defense
};

/// Evaluates one cell's payload into `out` (layout: billing, analytics,
/// extra energy, leakage per attack).
void score_cell(const core::PrivacyEvaluator& evaluator,
                const core::Defense& defense, const synth::HomeTrace& trace,
                const core::UtilityBaseline& base,
                std::span<const std::unique_ptr<core::AttackModel>> models,
                double intensity, Rng& point_rng, double* out,
                std::size_t payload_doubles) {
  const auto outcome = [&] {
    obs::ScopedTimer span(apply_timer());
    return defense.apply(trace, intensity, point_rng);
  }();
  std::span<double> leakage(out + 3, payload_doubles - 3);
  const core::UtilityScores scores =
      evaluator.score_into(base, outcome.released, trace, models, leakage);
  out[0] = scores.billing_error;
  out[1] = scores.analytics_error;
  out[2] = outcome.extra_energy_kwh;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config,
                            const RunOptions& options) {
  const CampaignPlan plan(config);
  const core::PrivacyEvaluator evaluator = make_evaluator(config);
  std::vector<std::unique_ptr<core::Defense>> defenses;
  defenses.reserve(config.defenses.size());
  for (const auto& name : config.defenses) defenses.push_back(make_defense(name));

  const std::size_t A = plan.archetypes();
  const std::size_t H = plan.homes();
  const std::size_t D = plan.defenses();
  const std::size_t I = plan.intensities();
  const std::size_t P = plan.payload_doubles();

  CampaignResult result;
  result.config = config;
  result.values.assign(plan.total_cells() * P, 0.0);
  result.done.assign(plan.total_cells(), 0);

  const std::uint64_t hash = config_hash(config);
  std::unique_ptr<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    if (options.resume) {
      const CheckpointLoad load =
          load_checkpoint(options.checkpoint_path, plan, hash,
                          config.base_seed, result.values, result.done);
      result.cells_resumed = load.cells;
      resumed_counter().add(load.cells);
      writer = std::make_unique<CheckpointWriter>(
          options.checkpoint_path, plan, hash, config.base_seed, load);
    } else {
      writer = std::make_unique<CheckpointWriter>(options.checkpoint_path,
                                                  plan, hash,
                                                  config.base_seed);
    }
  }

  const std::size_t block = std::min(config.block_homes, H);
  std::vector<HomeSlot> slots(block);
  for (auto& slot : slots) slot.baselines.resize(D);
  std::vector<std::uint8_t> pending(block * D * I, 0);

  std::uint64_t new_cells = 0;
  bool stopped = false;
  for (std::size_t a = 0; a < A && !stopped; ++a) {
    for (std::size_t b0 = 0; b0 < H && !stopped; b0 += block) {
      const std::size_t n = std::min(block, H - b0);

      // Phase 1 — parallel over the block's homes: simulate the trace, fit
      // every attack's model, and compute every defense's utility baseline
      // once per home. Slot-written; skipped entirely for homes whose cells
      // all resumed from the checkpoint.
      par::parallel_for(0, n, [&](std::size_t j) {
        const std::size_t h = b0 + j;
        const std::uint64_t first = plan.cell_id({a, h, 0, 0});
        bool all_done = true;
        for (std::size_t k = 0; k < D * I; ++k) {
          if (!result.done[first + k]) {
            all_done = false;
            break;
          }
        }
        if (all_done) return;
        HomeSlot& slot = slots[j];
        slot.trace = simulate_campaign_home(config, a, h);
        traces_counter().add();
        slot.models = evaluator.fit_models(slot.trace);
        models_counter().add(slot.models.size());
        for (std::size_t d = 0; d < D; ++d) {
          Rng bl_rng(baseline_seed(config, {a, h, d, 0}));
          obs::ScopedTimer span(baseline_timer());
          slot.baselines[d] =
              evaluator.baseline(*defenses[d], slot.trace, bl_rng);
        }
      });

      // Phase 2 — parallel over the block's cells: apply the defense and
      // score. Payloads scatter straight into the result matrix (slot
      // `cell_id`); `pending` records which cells this block produced.
      std::fill(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(n * D * I), 0);
      par::parallel_for(0, n * D * I, [&](std::size_t u) {
        const std::size_t j = u / (D * I);
        const CellRef ref{a, b0 + j, (u / I) % D, u % I};
        const std::uint64_t cell = plan.cell_id(ref);
        if (result.done[cell]) return;
        Rng point_rng(point_seed(config, ref));
        const HomeSlot& slot = slots[j];
        score_cell(evaluator, *defenses[ref.defense], slot.trace,
                   slot.baselines[ref.defense], slot.models,
                   config.intensities[ref.intensity], point_rng,
                   result.values.data() + cell * P, P);
        pending[u] = 1;
      });

      // Phase 3 — serial block join, in increasing cell order: mark cells
      // done, stream them to the checkpoint, honor the interruption budget.
      for (std::size_t u = 0; u < n * D * I; ++u) {
        if (!pending[u]) continue;
        const std::size_t j = u / (D * I);
        const std::size_t d = (u / I) % D;
        const std::size_t i = u % I;
        const std::uint64_t cell = plan.cell_id({a, b0 + j, d, i});
        result.done[cell] = 1;
        ++result.cells_evaluated;
        ++new_cells;
        cells_counter().add();
        if (writer) {
          obs::ScopedTimer span(append_timer());
          writer->append(cell,
                         std::span<const double>(
                             result.values.data() + cell * P, P));
          appended_counter().add();
        }
        if (options.max_new_cells && new_cells >= options.max_new_cells) {
          stopped = true;
          break;
        }
      }
      if (writer) writer->flush();
    }
  }
  if (writer) checkpoint_bytes_counter().add(writer->bytes_written());
  return result;
}

std::string describe_divergence(const CampaignResult& a,
                                const CampaignResult& b) {
  if (canonical_text(a.config) != canonical_text(b.config)) {
    return "configs differ";
  }
  const CampaignPlan plan(a.config);
  const std::size_t P = plan.payload_doubles();
  if (a.done.size() != b.done.size() || a.values.size() != b.values.size()) {
    return "result shapes differ";
  }
  for (std::uint64_t cell = 0; cell < plan.total_cells(); ++cell) {
    const CellRef ref = plan.decode(cell);
    const auto where = [&] {
      std::ostringstream os;
      os << "cell " << cell << " (archetype=" << a.config.archetypes[ref.archetype]
         << " home=" << ref.home
         << " defense=" << a.config.defenses[ref.defense]
         << " intensity=" << fmt_double(a.config.intensities[ref.intensity])
         << ")";
      return os.str();
    };
    if (a.done[cell] != b.done[cell]) {
      return where() + ": done " + std::to_string(a.done[cell]) + " vs " +
             std::to_string(b.done[cell]);
    }
    if (!a.done[cell]) continue;
    for (std::size_t k = 0; k < P; ++k) {
      const double va = a.values[cell * P + k];
      const double vb = b.values[cell * P + k];
      // Bitwise comparison via round-trip formatting keeps -0.0 vs 0.0 and
      // NaN payload differences visible.
      if (std::memcmp(&va, &vb, sizeof(double)) != 0) {
        return where() + " column " + std::to_string(k) + ": " +
               fmt_double(va) + " vs " + fmt_double(vb);
      }
    }
  }
  return "";
}

// --- The frontier artifact --------------------------------------------------

std::vector<FrontierRow> build_frontier(const CampaignResult& result) {
  const CampaignPlan plan(result.config);
  const std::size_t P = plan.payload_doubles();
  const std::size_t n_attacks = result.config.attacks.size();
  std::vector<FrontierRow> rows;
  rows.reserve(plan.archetypes() * plan.defenses() * plan.intensities());
  for (std::size_t a = 0; a < plan.archetypes(); ++a) {
    for (std::size_t d = 0; d < plan.defenses(); ++d) {
      for (std::size_t i = 0; i < plan.intensities(); ++i) {
        FrontierRow row;
        row.archetype = a;
        row.defense = d;
        row.intensity = result.config.intensities[i];
        row.leakage.assign(n_attacks, 0.0);
        // Home-order accumulation: the sums (and so the means) are
        // independent of how the cells were scheduled.
        for (std::size_t h = 0; h < plan.homes(); ++h) {
          const std::uint64_t cell = plan.cell_id({a, h, d, i});
          PMIOT_CHECK(result.done[cell],
                      "build_frontier needs a complete campaign");
          const double* v = result.values.data() + cell * P;
          row.billing_error += v[0];
          row.analytics_error += v[1];
          row.extra_energy_kwh += v[2];
          for (std::size_t k = 0; k < n_attacks; ++k) row.leakage[k] += v[3 + k];
        }
        const double inv = 1.0 / static_cast<double>(plan.homes());
        row.billing_error *= inv;
        row.analytics_error *= inv;
        row.extra_energy_kwh *= inv;
        for (double& l : row.leakage) l *= inv;
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

void write_frontier_csv(std::ostream& os, const CampaignConfig& config,
                        const std::vector<FrontierRow>& rows) {
  os << "# pmiot campaign frontier v1\n";
  os << "# config_hash=" << text::format_hash(config_hash(config)) << '\n';
  os << "archetype,defense,intensity,billing_error,analytics_error,"
        "extra_energy_kwh";
  for (const auto& attack : config.attacks) os << ",leakage:" << attack;
  os << '\n';
  for (const auto& row : rows) {
    os << config.archetypes[row.archetype] << ','
       << config.defenses[row.defense] << ',' << fmt_double(row.intensity)
       << ',' << fmt_double(row.billing_error) << ','
       << fmt_double(row.analytics_error) << ','
       << fmt_double(row.extra_energy_kwh);
    for (double l : row.leakage) os << ',' << fmt_double(l);
    os << '\n';
  }
}

}  // namespace pmiot::campaign
