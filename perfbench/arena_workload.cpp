// `arena`: `run_arena` on the timed-grid shape (4 defenses x 4 intensities,
// 2+2 instances per device type, 3600 s, full attack panel), repeated over
// a list of grid seeds drawn from --seed. One grid is one op and one part
// of a round.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arena_seeds.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "net/arena.h"
#include "net/features.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pmiot;

constexpr std::size_t kGridsPerRound = 8;

net::ArenaOptions timed_grid(std::uint64_t grid_seed) {
  net::ArenaOptions options;  // defaults: every defense, full panel
  options.duration_s = 3600.0;
  options.intensities = {0.0, 0.35, 0.7, 1.0};
  options.seed = grid_seed;
  return options;
}

/// `count` distinct grid seeds from the vetted list, chosen by `seed`.
std::vector<std::uint64_t> pick_grids(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> pool(kArenaGridSeeds.begin(),
                                  kArenaGridSeeds.end());
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

// --- Traced recomposition --------------------------------------------------
//
// run_arena's cell pipeline re-driven through public calls. It re-derives
// the arena's seed chain so it shapes and trains on the same data; whether
// it still does is reported as `trace.recompose_match`.

constexpr int kSilentClass = net::kNumDeviceTypes;
constexpr std::uint64_t kTrainHomeSalt = 0x9a1;
constexpr std::uint64_t kTestHomeSalt = 0x9a2;
constexpr std::uint64_t kCellSalt = 0x9a3;
constexpr std::uint64_t kPretrainedSalt = 0x9a4;

const char* shape_span(const std::string& defense) {
  if (defense == "constant-rate") return "net.shape.constant-rate";
  if (defense == "cover") return "net.shape.cover";
  if (defense == "decoy") return "net.shape.decoy";
  if (defense == "vpn") return "net.shape.vpn";
  return "net.shape.other";
}

struct WindowTable {
  std::vector<std::vector<double>> base;
  std::vector<std::vector<double>> ext;
  std::vector<bool> silent;
  std::vector<int> label;
};

/// Counters the traced pass accumulates across threads.
struct ArenaCounts {
  std::atomic<std::uint64_t> windows{0};
  std::atomic<std::uint64_t> packets_in{0};
  std::atomic<std::uint64_t> packets_out{0};
};

WindowTable window_table(SpanRecorder& rec, ArenaCounts& counts,
                         std::span<const net::Packet> wan,
                         const std::vector<net::DeviceProfile>& roster,
                         double duration_s, double window_s) {
  std::vector<std::vector<net::Packet>> buckets(roster.size());
  {
    ScopedSpan s(rec, "net.arena.bucket", Layer::kNet);
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < roster.size(); ++i) {
      index.emplace(roster[i].ip, i);
    }
    for (const auto& p : wan) {
      auto it = index.find(p.src_ip);
      if (it == index.end()) it = index.find(p.dst_ip);
      if (it != index.end()) buckets[it->second].push_back(p);
    }
  }
  WindowTable table;
  for (std::size_t d = 0; d < roster.size(); ++d) {
    std::vector<net::WindowRow> rows;
    {
      ScopedSpan s(rec, "net.windowed_features", Layer::kNet);
      rows = net::windowed_features(buckets[d], roster[d].ip, duration_s,
                                    window_s, /*keep_idle_windows=*/true);
    }
    counts.windows += rows.size();
    for (const auto& row : rows) {
      const double t0 = static_cast<double>(row.window_index) * window_s;
      std::vector<double> recovery;
      {
        ScopedSpan s(rec, "net.recovery_features", Layer::kNet);
        recovery = net::extract_recovery_features(buckets[d], roster[d].ip,
                                                  t0, t0 + window_s);
      }
      ScopedSpan s(rec, "net.arena.table", Layer::kNet);
      const bool silent = row.features[net::kFeaturePktRateUp] == 0.0 &&
                          row.features[net::kFeaturePktRateDown] == 0.0;
      auto ext = row.features;
      ext.insert(ext.end(), recovery.begin(), recovery.end());
      table.base.push_back(row.features);
      table.ext.push_back(std::move(ext));
      table.silent.push_back(silent);
      table.label.push_back(static_cast<int>(roster[d].type));
    }
  }
  return table;
}

WindowTable shaped_table(SpanRecorder& rec, ArenaCounts& counts,
                         const net::TrafficDefense& defense,
                         const net::HomeNetwork& home,
                         const net::ArenaOptions& o, double intensity,
                         Rng& rng, net::ShapedCapture* keep) {
  net::ShapedCapture shaped;
  {
    ScopedSpan s(rec, shape_span(defense.name()), Layer::kNet);
    shaped = defense.apply(home, o.duration_s, intensity, rng);
  }
  counts.packets_in += home.packets.size();
  counts.packets_out += shaped.packets.size();
  std::vector<net::Packet> wan;
  {
    ScopedSpan s(rec, "net.wan_view", Layer::kNet);
    wan = net::wan_view(shaped.packets);
  }
  auto table =
      window_table(rec, counts, wan, home.devices, o.duration_s, o.window_s);
  if (keep != nullptr) *keep = std::move(shaped);
  return table;
}

net::AttackScore evaluate_attack(SpanRecorder& rec,
                                 const net::SupervisedFingerprintAttack& attack,
                                 const WindowTable& raw_train,
                                 const WindowTable& shaped_train,
                                 const WindowTable& test, std::uint64_t seed) {
  ml::Dataset train;
  ml::Dataset query;
  std::vector<std::size_t> query_rows;
  {
    ScopedSpan s(rec, "net.arena.rows", Layer::kNet);
    const auto& table = attack.adaptive ? shaped_train : raw_train;
    for (std::size_t i = 0; i < table.label.size(); ++i) {
      if (table.silent[i]) continue;
      train.append(attack.recovery ? table.ext[i] : table.base[i],
                   table.label[i]);
    }
    for (std::size_t i = 0; i < test.label.size(); ++i) {
      if (test.silent[i]) continue;
      query.append(attack.recovery ? test.ext[i] : test.base[i],
                   test.label[i]);
      query_rows.push_back(i);
    }
  }
  std::vector<int> predicted(test.label.size(), kSilentClass);
  if (train.size() >= 2 && !query_rows.empty()) {
    std::unique_ptr<ml::Classifier> model;
    const bool knn =
        attack.backend == net::SupervisedFingerprintAttack::Backend::kKnn;
    if (knn) {
      ScopedSpan s(rec, "ml.scale", Layer::kMl);
      ml::StandardScaler scaler;
      scaler.fit(train);
      scaler.transform_in_place(train);
      scaler.transform_in_place(query);
      model = std::make_unique<ml::KnnClassifier>(5);
    } else {
      model = std::make_unique<ml::RandomForest>(ml::ForestOptions{}, seed);
    }
    {
      ScopedSpan s(rec, knn ? "ml.knn.fit" : "ml.forest.fit", Layer::kMl);
      model->fit(train);
    }
    std::vector<int> votes;
    {
      ScopedSpan s(rec, "ml.predict_all", Layer::kMl);
      votes = model->predict_all(query);
    }
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      predicted[query_rows[q]] = votes[q];
    }
  } else {
    for (const auto i : query_rows) predicted[i] = 0;
  }
  ScopedSpan s(rec, "ml.confusion", Layer::kMl);
  const ml::ConfusionMatrix confusion(predicted, test.label,
                                      kSilentClass + 1);
  return net::AttackScore{attack.name, confusion.mcc(), confusion.accuracy()};
}

net::ArenaResult recompose_grid(SpanRecorder& rec, ArenaCounts& counts,
                                const net::ArenaOptions& o,
                                std::uint64_t request_base) {
  net::HomeNetwork train_home;
  net::HomeNetwork test_home;
  {
    ScopedSpan s(rec, "net.simulate_home_network", Layer::kNet);
    Rng train_rng(par::shard_seed(o.seed, kTrainHomeSalt));
    Rng test_rng(par::shard_seed(o.seed, kTestHomeSalt));
    train_home = net::simulate_home_network(o.train_instances_per_type,
                                            o.duration_s, train_rng);
    test_home = net::simulate_home_network(o.test_instances_per_type,
                                           o.duration_s, test_rng);
  }
  std::vector<net::Packet> raw_wan;
  {
    ScopedSpan s(rec, "net.wan_view", Layer::kNet);
    raw_wan = net::wan_view(train_home.packets);
  }
  const auto raw_train = window_table(rec, counts, raw_wan, train_home.devices,
                                      o.duration_s, o.window_s);
  const auto& panel = net::fingerprint_attacks();

  net::ArenaResult result;
  result.cells.resize(o.defenses.size() * o.intensities.size());
  ScopedSpan phase(rec, "common.par.cells", Layer::kPar);
  const auto parent = phase.id();
  par::parallel_for(0, result.cells.size(), [&](std::size_t cell) {
    ScopedSpan request(rec, "arena.cell", Layer::kGroup, request_base + cell,
                       parent);
    const auto& defense_name = o.defenses[cell / o.intensities.size()];
    const double intensity = o.intensities[cell % o.intensities.size()];
    const auto defense = net::make_traffic_defense(defense_name);
    const auto cell_seed =
        par::shard_seed(par::shard_seed(o.seed, kCellSalt), cell);
    Rng shape_train_rng(par::shard_seed(cell_seed, 0));
    Rng shape_test_rng(par::shard_seed(cell_seed, 1));
    net::ShapedCapture shaped_test;
    const auto train_table = shaped_table(rec, counts, *defense, train_home, o,
                                          intensity, shape_train_rng, nullptr);
    const auto test_table = shaped_table(rec, counts, *defense, test_home, o,
                                         intensity, shape_test_rng,
                                         &shaped_test);
    auto& out = result.cells[cell];
    out.defense = defense_name;
    out.intensity = intensity;
    out.added_bytes_fraction = shaped_test.added_bytes_fraction();
    out.mean_added_latency_s = shaped_test.mean_added_latency_s();
    for (std::size_t a = 0; a < panel.size(); ++a) {
      const auto& attack = panel[a];
      const auto attack_seed = attack.adaptive
                                   ? par::shard_seed(cell_seed, 2 + a)
                                   : par::shard_seed(o.seed, kPretrainedSalt);
      const auto score = evaluate_attack(rec, attack, raw_train, train_table,
                                         test_table, attack_seed);
      if (!attack.adaptive) out.naive_mcc = std::max(out.naive_mcc, score.mcc);
      out.privacy_mcc = std::max(out.privacy_mcc, score.mcc);
      out.attacks.push_back(score);
    }
  });
  return result;
}

class ArenaWorkload final : public Workload {
 public:
  explicit ArenaWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* item_name() const override { return "cells"; }

  void setup() override {
    grids_ = pick_grids(seed_, kGridsPerRound);
    references_.assign(grids_.size(), {});
    completed_.assign(grids_.size(), false);
    // Warm-up: one single-cell grid on the first vetted seed.
    auto warmup = timed_grid(kArenaGridSeeds.front());
    warmup.defenses = {"vpn"};
    warmup.intensities = {1.0};
    (void)net::run_arena(warmup);
  }

  std::size_t parts() const override { return grids_.size(); }

  double run_pass(OpTally& tally) override {
    const std::size_t g = next_grid_;
    next_grid_ = (next_grid_ + 1) % grids_.size();
    net::ArenaResult result;
    if (!run_ops(tally, 1,
                 [&] { result = net::run_arena(timed_grid(grids_[g])); })) {
      return 0.0;
    }
    const auto cells = static_cast<double>(result.cells.size());
    if (!completed_[g]) {
      references_[g] = std::move(result);
      completed_[g] = true;
    } else if (const auto diff =
                   net::describe_divergence(references_[g], result);
               !diff.empty()) {
      pass_divergence_ = "grid " + std::to_string(grids_[g]) +
                         ": passes differ: " + diff;
    }
    return cells;
  }

  std::string check() override {
    if (!pass_divergence_.empty()) return pass_divergence_;
    // Each grid is re-run on a width-1 pool; the grids are independent, so
    // they are spread over plain threads, each with its own override.
    std::vector<std::string> problems(grids_.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      par::ThreadPool serial(1);
      const par::ScopedPoolOverride width_one(serial);
      for (std::size_t g = next++; g < grids_.size(); g = next++) {
        if (!completed_[g]) continue;  // counted as failed already
        const auto where = "grid " + std::to_string(grids_[g]) + ": ";
        try {
          const auto options = timed_grid(grids_[g]);
          if (references_[g].cells.size() !=
              options.defenses.size() * options.intensities.size()) {
            problems[g] = where + "wrong cell count";
            continue;
          }
          const auto oracle = net::run_arena(options);
          if (auto diff = net::describe_divergence(references_[g], oracle);
              !diff.empty()) {
            problems[g] = where + "differs from its width-1 run: " + diff;
          }
        } catch (const std::exception& e) {
          problems[g] = where + "width-1 run failed: " + e.what();
        }
      }
    };
    {
      std::vector<std::jthread> threads;  // joined at scope exit
      const auto width = std::min(par::thread_count(), grids_.size());
      for (std::size_t t = 0; t < width; ++t) threads.emplace_back(worker);
    }
    for (const auto& problem : problems) {
      if (!problem.empty()) return problem;
    }
    return "";
  }

  std::string traced_pass(SpanRecorder& rec, LayerMetrics& metrics,
                          OpTally& tally) override {
    ArenaCounts counts;
    std::string mismatch;
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      ScopedSpan request(rec, "arena.grid", Layer::kGroup, g * 1000);
      net::ArenaResult result;
      if (!run_ops(tally, 1, [&] {
            result = recompose_grid(rec, counts, timed_grid(grids_[g]),
                                    g * 1000);
          })) {
        continue;
      }
      if (!completed_[g]) {
        if (mismatch.empty()) mismatch = "grid failed untraced only";
      } else if (auto diff = net::describe_divergence(references_[g], result);
                 !diff.empty() && mismatch.empty()) {
        mismatch = "recomposition differs from run_arena: " + diff;
      }
    }
    const auto& spans = rec.spans();
    auto cells = durations(spans, "arena.cell");
    metrics["arena.cell.p50_s"] = median(cells);
    metrics["arena.cell.max_s"] =
        cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end());
    metrics["common.par.cells.busy_share"] =
        busy_share(spans, "common.par.cells", par::thread_count());
    metrics["net.windowed_features.windows"] =
        static_cast<double>(counts.windows.load());
    metrics["net.shape.packets_out_per_in"] =
        counts.packets_in == 0
            ? 0.0
            : static_cast<double>(counts.packets_out.load()) /
                  static_cast<double>(counts.packets_in.load());
    return mismatch;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint64_t> grids_;
  std::vector<net::ArenaResult> references_;
  std::vector<bool> completed_;
  std::size_t next_grid_ = 0;
  std::string pass_divergence_;
};

}  // namespace

std::unique_ptr<Workload> make_arena_workload(std::uint64_t seed) {
  return std::make_unique<ArenaWorkload>(seed);
}

void scan_arena_grids(std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const auto id = static_cast<unsigned long long>(seed);
    try {
      const double t0 = wall_now();
      (void)net::run_arena(timed_grid(seed));
      std::printf("grid seed %llu: ok %.3f s\n", id, wall_now() - t0);
    } catch (const std::exception& e) {
      std::printf("grid seed %llu: failed: %s\n", id, e.what());
    }
    std::fflush(stdout);
  }
}

}  // namespace perfbench
