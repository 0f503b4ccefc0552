#include "net/arena.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "net/features.h"

namespace pmiot::net {

namespace {

/// Class id for a window with no attributable device traffic; the attacks
/// are scored over a (kNumDeviceTypes + 1)-class confusion so a defense
/// that erases a device entirely (VPN) is credited for the confusion it
/// causes rather than dropped from the metric.
constexpr int kSilentClass = kNumDeviceTypes;

// Seed-chain salts (arbitrary distinct constants; the chain topology, not
// the values, is what determinism rests on).
constexpr std::uint64_t kTrainHomeSalt = 0x9a1;
constexpr std::uint64_t kTestHomeSalt = 0x9a2;
constexpr std::uint64_t kCellSalt = 0x9a3;
constexpr std::uint64_t kPretrainedSalt = 0x9a4;

/// Every roster device's windows over one capture, defense-agnostic: the
/// per-cell unit both training-set assembly and scoring consume.
struct WindowTable {
  std::vector<std::vector<double>> base;  ///< feature_names() vector
  std::vector<std::vector<double>> ext;   ///< base + recovery features
  std::vector<bool> silent;               ///< no attributable packets
  std::vector<int> label;                 ///< actual device type
};

WindowTable build_window_table(std::span<const Packet> wan_packets,
                               const std::vector<DeviceProfile>& roster,
                               double duration_s, double window_s) {
  // One bucketing pass: a WAN packet has exactly one LAN endpoint, so it
  // belongs to at most one roster device (tunnel traffic rewritten away
  // from device addresses lands in no bucket — exactly what the observer
  // can attribute).
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    index.emplace(roster[i].ip, i);
  }
  std::vector<std::vector<Packet>> buckets(roster.size());
  for (const auto& p : wan_packets) {
    auto it = index.find(p.src_ip);
    if (it == index.end()) it = index.find(p.dst_ip);
    if (it != index.end()) buckets[it->second].push_back(p);
  }

  WindowTable table;
  for (std::size_t d = 0; d < roster.size(); ++d) {
    const auto rows = windowed_features(buckets[d], roster[d].ip, duration_s,
                                        window_s, /*keep_idle_windows=*/true);
    for (const auto& row : rows) {
      const double t0 = static_cast<double>(row.window_index) * window_s;
      auto recovery =
          extract_recovery_features(buckets[d], roster[d].ip, t0,
                                    t0 + window_s);
      // total == 0 implies both packet rates are zero, and vice versa.
      const bool silent = row.features[kFeaturePktRateUp] == 0.0 &&
                          row.features[kFeaturePktRateDown] == 0.0;
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

ml::Dataset training_rows(const WindowTable& table, bool recovery) {
  ml::Dataset data;
  for (std::size_t i = 0; i < table.label.size(); ++i) {
    if (table.silent[i]) continue;
    data.append(recovery ? table.ext[i] : table.base[i], table.label[i]);
  }
  return data;
}

AttackScore evaluate_attack(const SupervisedFingerprintAttack& attack,
                            const WindowTable& raw_train,
                            const WindowTable& shaped_train,
                            const WindowTable& test, std::uint64_t seed) {
  const auto& train_table = attack.adaptive ? shaped_train : raw_train;
  const auto train = training_rows(train_table, attack.recovery);

  std::vector<int> predicted(test.label.size(), kSilentClass);
  ml::Dataset query;
  std::vector<std::size_t> query_rows;
  for (std::size_t i = 0; i < test.label.size(); ++i) {
    if (test.silent[i]) continue;
    query.append(attack.recovery ? test.ext[i] : test.base[i], test.label[i]);
    query_rows.push_back(i);
  }

  // A blinded attacker (every training window silent) has no model; every
  // visible test window gets its best uninformed guess, class 0.
  if (train.size() >= 2 && !query_rows.empty()) {
    std::unique_ptr<ml::Classifier> model;
    ml::StandardScaler scaler;
    ml::Dataset scaled_train = train;
    ml::Dataset scaled_query = query;
    if (attack.backend == SupervisedFingerprintAttack::Backend::kKnn) {
      scaler.fit(train);
      scaler.transform_in_place(scaled_train);
      scaler.transform_in_place(scaled_query);
      model = std::make_unique<ml::KnnClassifier>(5);
    } else {
      model = std::make_unique<ml::RandomForest>(ml::ForestOptions{}, seed);
    }
    model->fit(scaled_train);
    const auto votes = model->predict_all(scaled_query);
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      predicted[query_rows[q]] = votes[q];
    }
  } else {
    for (const auto i : query_rows) predicted[i] = 0;
  }

  const ml::ConfusionMatrix confusion(predicted, test.label,
                                      kSilentClass + 1);
  return AttackScore{attack.name, confusion.mcc(), confusion.accuracy()};
}

/// Inputs shared by every cell, computed once up front: the two simulated
/// homes and the raw (unshaped) training-home windows the non-adaptive
/// attacks pre-train on.
struct ArenaContext {
  HomeNetwork train_home;
  HomeNetwork test_home;
  WindowTable raw_train;
  std::vector<SupervisedFingerprintAttack> panel;
};

ArenaContext prepare(const ArenaOptions& o) {
  validate(o);
  ArenaContext ctx;
  Rng train_rng(par::shard_seed(o.seed, kTrainHomeSalt));
  Rng test_rng(par::shard_seed(o.seed, kTestHomeSalt));
  ctx.train_home = simulate_home_network(o.train_instances_per_type,
                                         o.duration_s, train_rng);
  ctx.test_home =
      simulate_home_network(o.test_instances_per_type, o.duration_s, test_rng);
  const auto raw_wan = wan_view(ctx.train_home.packets);
  ctx.raw_train = build_window_table(raw_wan, ctx.train_home.devices,
                                     o.duration_s, o.window_s);
  if (o.attacks.empty()) {
    ctx.panel = fingerprint_attacks();
  } else {
    for (const auto& name : o.attacks) {
      ctx.panel.push_back(make_fingerprint_attack(name));
    }
  }
  return ctx;
}

ArenaCell score_cell(const ArenaOptions& o, const ArenaContext& ctx,
                     std::size_t cell) {
  const auto& defense_name = o.defenses[cell / o.intensities.size()];
  const double intensity = o.intensities[cell % o.intensities.size()];
  const auto defense = make_traffic_defense(defense_name);

  // All cell randomness hangs off (seed, cell index) — never off which
  // thread got here first.
  const auto cell_seed =
      par::shard_seed(par::shard_seed(o.seed, kCellSalt), cell);
  Rng shape_train_rng(par::shard_seed(cell_seed, 0));
  Rng shape_test_rng(par::shard_seed(cell_seed, 1));
  const auto shaped_train =
      defense->apply(ctx.train_home, o.duration_s, intensity, shape_train_rng);
  const auto shaped_test =
      defense->apply(ctx.test_home, o.duration_s, intensity, shape_test_rng);

  const auto train_table =
      build_window_table(wan_view(shaped_train.packets),
                         ctx.train_home.devices, o.duration_s, o.window_s);
  const auto test_table =
      build_window_table(wan_view(shaped_test.packets), ctx.test_home.devices,
                         o.duration_s, o.window_s);

  ArenaCell result;
  result.defense = defense_name;
  result.intensity = intensity;
  result.added_bytes_fraction = shaped_test.added_bytes_fraction();
  result.mean_added_latency_s = shaped_test.mean_added_latency_s();
  for (std::size_t a = 0; a < ctx.panel.size(); ++a) {
    const auto& attack = ctx.panel[a];
    // Pre-trained attacks use one arena-wide seed (the same model in every
    // cell); adaptive ones refit per cell.
    const auto attack_seed = attack.adaptive
                                 ? par::shard_seed(cell_seed, 2 + a)
                                 : par::shard_seed(o.seed, kPretrainedSalt);
    const auto score = evaluate_attack(attack, ctx.raw_train, train_table,
                                       test_table, attack_seed);
    if (!attack.adaptive) {
      result.naive_mcc = std::max(result.naive_mcc, score.mcc);
    }
    // Privacy is read under the strongest attacker, whoever that is — at
    // some cells (decoy at full blast) the pre-trained model out-scores
    // the retrained ones, and crediting the defense for confusing only
    // adaptive attackers would overstate protection.
    result.privacy_mcc = std::max(result.privacy_mcc, score.mcc);
    result.attacks.push_back(score);
  }
  return result;
}

}  // namespace

const std::vector<SupervisedFingerprintAttack>& fingerprint_attacks() {
  using Backend = SupervisedFingerprintAttack::Backend;
  static const std::vector<SupervisedFingerprintAttack> panel = {
      {"naive-forest", Backend::kForest, /*adaptive=*/false,
       /*recovery=*/false},
      {"adaptive-forest", Backend::kForest, /*adaptive=*/true,
       /*recovery=*/false},
      {"adaptive-knn", Backend::kKnn, /*adaptive=*/true, /*recovery=*/false},
      {"adaptive-forest+recovery", Backend::kForest, /*adaptive=*/true,
       /*recovery=*/true},
  };
  return panel;
}

SupervisedFingerprintAttack make_fingerprint_attack(const std::string& name) {
  for (const auto& attack : fingerprint_attacks()) {
    if (attack.name == name) return attack;
  }
  PMIOT_CHECK(false, "unknown fingerprint attack: " + name);
  return {};
}

const std::vector<std::string>& recovery_feature_names() {
  static const std::vector<std::string> names = {
      "iat_mode_frac",      // fraction of IATs in the modal 10 ms bin
      "sub_mode_iat_frac",  // IATs under half the modal gap: queue bursts
      "fine_burst_rate",    // max packets/s over 1 s buckets
      "size_mode_frac",     // fraction of packets at the modal wire size
  };
  return names;
}

std::vector<double> extract_recovery_features(std::span<const Packet> packets,
                                              std::uint32_t device_ip,
                                              double t0, double t1) {
  PMIOT_CHECK(t1 > t0, "empty window");
  std::vector<double> times;
  std::map<int, std::size_t> size_counts;  // ordered: ties -> smallest
  const auto num_buckets = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil((t1 - t0) / 1.0)), 1);
  std::vector<std::size_t> buckets(num_buckets, 0);
  for (const auto& p : packets) {
    if (p.timestamp_s < t0 || p.timestamp_s >= t1) continue;
    if (p.src_ip != device_ip && p.dst_ip != device_ip) continue;
    times.push_back(p.timestamp_s);
    ++size_counts[p.size_bytes];
    const auto bucket = std::min(
        static_cast<std::size_t>(p.timestamp_s - t0), num_buckets - 1);
    ++buckets[bucket];
  }

  std::vector<double> f(recovery_feature_names().size(), 0.0);
  if (times.empty()) return f;

  std::sort(times.begin(), times.end());
  if (times.size() >= 2) {
    // Periodicity recovery: bin IATs at 10 ms and find the modal gap; a
    // shaper's slot cadence concentrates mass in one bin, while its queue
    // overflow shows up as gaps far *below* the mode.
    std::map<long, std::size_t> iat_bins;
    std::size_t num_iats = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      ++iat_bins[std::lround((times[i] - times[i - 1]) * 100.0)];
      ++num_iats;
    }
    long mode_bin = 0;
    std::size_t mode_count = 0;
    for (const auto& [bin, count] : iat_bins) {
      if (count > mode_count) {  // ties keep the smallest bin
        mode_count = count;
        mode_bin = bin;
      }
    }
    f[0] = static_cast<double>(mode_count) / static_cast<double>(num_iats);
    const double mode_gap = static_cast<double>(mode_bin) / 100.0;
    if (mode_gap > 0.0) {
      std::size_t sub = 0;
      for (std::size_t i = 1; i < times.size(); ++i) {
        if (times[i] - times[i - 1] < 0.5 * mode_gap) ++sub;
      }
      f[1] = static_cast<double>(sub) / static_cast<double>(num_iats);
    }
  }
  double burst = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double width =
        std::min(1.0, (t1 - t0) - static_cast<double>(b));
    burst = std::max(burst, static_cast<double>(buckets[b]) / width);
  }
  f[2] = burst;
  std::size_t size_mode = 0;
  for (const auto& [size, count] : size_counts) {
    size_mode = std::max(size_mode, count);
  }
  f[3] = static_cast<double>(size_mode) / static_cast<double>(times.size());
  return f;
}

void validate(const ArenaOptions& options) {
  PMIOT_CHECK(!options.defenses.empty() && !options.intensities.empty(),
              "empty arena grid");
  for (const double i : options.intensities) {
    PMIOT_CHECK(i >= 0.0 && i <= 1.0, "intensity must be within [0, 1]");
  }
  PMIOT_CHECK(options.train_instances_per_type >= 1 &&
                  options.test_instances_per_type >= 1,
              "arena needs >= 1 instance per device type");
  PMIOT_CHECK(std::isfinite(options.duration_s), "duration must be finite");
  PMIOT_CHECK(options.window_s > 0.0 && options.duration_s >= options.window_s,
              "need at least one full window");
}

ArenaResult run_arena(const ArenaOptions& options) {
  const auto ctx = prepare(options);
  ArenaResult result;
  result.cells.resize(options.defenses.size() * options.intensities.size());
  par::parallel_for(0, result.cells.size(), [&](std::size_t cell) {
    result.cells[cell] = score_cell(options, ctx, cell);  // slot write only
  });
  return result;
}

std::string describe_divergence(const ArenaResult& a, const ArenaResult& b) {
  if (a.cells.size() != b.cells.size()) {
    return "cell count " + std::to_string(a.cells.size()) + " vs " +
           std::to_string(b.cells.size());
  }
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const auto& x = a.cells[c];
    const auto& y = b.cells[c];
    const auto where = [&](const std::string& field) {
      return "cell " + std::to_string(c) + " (" + x.defense + " @ " +
             std::to_string(x.intensity) + "): " + field;
    };
    if (x.defense != y.defense) return where("defense name");
    if (x.intensity != y.intensity) return where("intensity");
    if (x.added_bytes_fraction != y.added_bytes_fraction) {
      return where("added_bytes_fraction");
    }
    if (x.mean_added_latency_s != y.mean_added_latency_s) {
      return where("mean_added_latency_s");
    }
    if (x.naive_mcc != y.naive_mcc) return where("naive_mcc");
    if (x.privacy_mcc != y.privacy_mcc) return where("privacy_mcc");
    if (x.attacks.size() != y.attacks.size()) return where("attack count");
    for (std::size_t i = 0; i < x.attacks.size(); ++i) {
      if (x.attacks[i].attack != y.attacks[i].attack ||
          x.attacks[i].mcc != y.attacks[i].mcc ||
          x.attacks[i].accuracy != y.attacks[i].accuracy) {
        return where("attack " + x.attacks[i].attack);
      }
    }
  }
  return "";
}

}  // namespace pmiot::net
