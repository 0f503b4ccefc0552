#include "net/arena.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "net/features.h"
#include "net/window_accumulator.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

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

constexpr std::array<const char*, 4> kRecoveryFeatureNames = {
    "iat_mode_frac",      // fraction of IATs in the modal 10 ms bin
    "sub_mode_iat_frac",  // IATs under half the modal gap: queue bursts
    "fine_burst_rate",    // max packets/s over 1 s buckets
    "size_mode_frac",     // fraction of packets at the modal wire size
};
constexpr std::size_t kNumRecoveryFeatures = kRecoveryFeatureNames.size();

obs::Counter& packets_routed_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.arena.packets_routed");
  return c;
}

obs::Counter& windows_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.arena.windows");
  return c;
}

obs::Counter& packets_added_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.shape.packets_added");
  return c;
}

/// Modal-count scratch shared by every recovery window one table build
/// closes: dense counts for values in [0, kDenseValues), reset through the
/// entries a window touched, so a close costs O(its packets) and allocates
/// nothing. Values outside the dense range (IAT bins of gaps >= 655.36 s,
/// negative or jumbo wire sizes) are sorted and counted at close.
class ModalScratch {
 public:
  struct Mode {
    std::size_t count = 0;
    long value = 0;
  };

  void add(long value) {
    if (value >= 0 && value < kDenseValues) {
      const auto slot = static_cast<std::size_t>(value);
      if (counts_[slot]++ == 0) touched_.push_back(slot);
    } else {
      overflow_.push_back(value);
    }
  }

  /// The highest count, ties to the smallest value (what an ascending
  /// ordered-map scan with a strict `>` picks); empties the scratch.
  Mode take_mode() {
    Mode best;
    const auto consider = [&best](long value, std::size_t count) {
      if (count > best.count || (count == best.count && value < best.value)) {
        best = Mode{count, value};
      }
    };
    for (const auto slot : touched_) {
      consider(static_cast<long>(slot), counts_[slot]);
      counts_[slot] = 0;
    }
    touched_.clear();
    std::sort(overflow_.begin(), overflow_.end());
    for (std::size_t i = 0; i < overflow_.size();) {
      std::size_t j = i;
      while (j < overflow_.size() && overflow_[j] == overflow_[i]) ++j;
      consider(overflow_[i], j - i);
      i = j;
    }
    overflow_.clear();
    return best;
  }

 private:
  static constexpr long kDenseValues = 65536;
  std::vector<std::uint32_t> counts_ =
      std::vector<std::uint32_t>(kDenseValues, 0);
  std::vector<std::size_t> touched_;
  std::vector<long> overflow_;
};

/// One recovery window [t0, t1): the in-window packets' timestamps and wire
/// sizes, in arrival (= time) order. Every feature is computed at `close`.
class RecoveryWindow {
 public:
  /// Opens [t0, t1), keeping any held packets at or after t0: the ones
  /// that also fall in this window when rounding makes the previous
  /// window's k·w + w exceed this one's (k+1)·w.
  void open(double t0, double t1) {
    PMIOT_CHECK(t1 > t0, "empty window");
    const auto keep_from =
        std::lower_bound(times_.begin(), times_.end(), t0) - times_.begin();
    times_.erase(times_.begin(), times_.begin() + keep_from);
    sizes_.erase(sizes_.begin(), sizes_.begin() + keep_from);
    t0_ = t0;
    t1_ = t1;
  }

  double t0() const noexcept { return t0_; }
  double t1() const noexcept { return t1_; }

  /// The packet at `timestamp_s` lies in [t0, t1) and after every packet
  /// already held.
  void add(double timestamp_s, int size_bytes) {
    times_.push_back(timestamp_s);
    sizes_.push_back(size_bytes);
  }

  /// Writes the `recovery_feature_names()` vector to `out` — the same
  /// arithmetic, on the same values, as the per-window rescan
  /// `reference::extract_recovery_features`.
  void close(ModalScratch& scratch, double* out) const {
    std::fill(out, out + kNumRecoveryFeatures, 0.0);
    if (times_.empty()) return;
    if (times_.size() >= 2) {
      // Periodicity recovery: bin IATs at 10 ms and find the modal gap; a
      // shaper's slot cadence concentrates mass in one bin, while its queue
      // overflow shows up as gaps far *below* the mode.
      for (std::size_t i = 1; i < times_.size(); ++i) {
        scratch.add(std::lround((times_[i] - times_[i - 1]) * 100.0));
      }
      const auto mode = scratch.take_mode();
      const auto num_iats = static_cast<double>(times_.size() - 1);
      out[0] = static_cast<double>(mode.count) / num_iats;
      const double mode_gap = static_cast<double>(mode.value) / 100.0;
      if (mode_gap > 0.0) {
        std::size_t sub = 0;
        for (std::size_t i = 1; i < times_.size(); ++i) {
          if (times_[i] - times_[i - 1] < 0.5 * mode_gap) ++sub;
        }
        out[1] = static_cast<double>(sub) / num_iats;
      }
    }
    // Peak 1 s packet rate. Bucket indices never decrease over sorted
    // times, so each occupied bucket is one run; empty buckets rate 0.
    const auto num_buckets = std::max<std::size_t>(
        static_cast<std::size_t>(std::ceil((t1_ - t0_) / 1.0)), 1);
    const auto bucket_of = [&](double t) {
      return std::min(static_cast<std::size_t>(t - t0_), num_buckets - 1);
    };
    const auto rate = [&](std::size_t bucket, std::size_t count) {
      const double width =
          std::min(1.0, (t1_ - t0_) - static_cast<double>(bucket));
      return static_cast<double>(count) / width;
    };
    double burst = 0.0;
    std::size_t bucket = bucket_of(times_.front());
    std::size_t count = 0;
    for (const double t : times_) {
      const auto b = bucket_of(t);
      if (b != bucket) {
        burst = std::max(burst, rate(bucket, count));
        bucket = b;
        count = 0;
      }
      ++count;
    }
    out[2] = std::max(burst, rate(bucket, count));
    for (const int size : sizes_) scratch.add(size);
    out[3] = static_cast<double>(scratch.take_mode().count) /
             static_cast<double>(sizes_.size());
  }

 private:
  double t0_ = 0.0;
  double t1_ = 0.0;
  std::vector<double> times_;
  std::vector<int> sizes_;
};

constexpr const char* kOrderMessage =
    "packets must arrive in timestamp order (use sort_by_time)";

/// Streaming recovery features for one device over the windows
/// [k·w, k·w + w), k < num_windows — the window expressions the per-window
/// calls used, so rounding can make neighbours overlap or leave a gap, and
/// the stream honours both.
class RecoveryStream {
 public:
  RecoveryStream(double window_s, std::size_t num_windows,
                 ModalScratch& scratch)
      : window_s_(window_s),
        num_windows_(num_windows),
        scratch_(&scratch),
        rows_(num_windows * kNumRecoveryFeatures, 0.0) {
    if (num_windows_ > 0) window_.open(0.0, window_s_);
  }

  /// `timestamp_s` must not precede the previous packet's (callers check).
  void add(double timestamp_s, int size_bytes) {
    while (current_ < num_windows_ && timestamp_s >= window_.t1()) {
      close_window();
    }
    if (current_ == num_windows_ || timestamp_s < window_.t0()) return;
    window_.add(timestamp_s, size_bytes);
  }

  /// Closes the remaining windows; row k is
  /// [k * kNumRecoveryFeatures, (k + 1) * kNumRecoveryFeatures). Terminal.
  std::vector<double> finish() {
    while (current_ < num_windows_) close_window();
    return std::move(rows_);
  }

 private:
  void close_window() {
    window_.close(*scratch_, rows_.data() + current_ * kNumRecoveryFeatures);
    if (++current_ == num_windows_) return;
    const double t0 = static_cast<double>(current_) * window_s_;
    window_.open(t0, t0 + window_s_);
  }

  double window_s_;
  std::size_t num_windows_;
  ModalScratch* scratch_;
  std::size_t current_ = 0;
  RecoveryWindow window_;
  std::vector<double> rows_;
};

/// Every roster device's windows over one capture, defense-agnostic: what
/// both training-set assembly and scoring consume.
struct WindowTable {
  std::vector<std::vector<double>> base;  ///< feature_names() vector
  std::vector<std::vector<double>> ext;   ///< base + recovery features
  std::vector<bool> silent;               ///< no attributable packets
  std::vector<int> label;                 ///< actual device type
};

/// One pass over the whole (time-sorted) capture. Each packet the WAN
/// observer sees — at least one non-LAN endpoint, `wan_view`'s rule — has
/// at most one LAN endpoint, so it belongs to at most one roster device
/// (src looked up first, then dst; tunnel traffic rewritten away from
/// device addresses lands nowhere — exactly what the observer can
/// attribute). Its `DeviceSlots` entry sends it straight to that device's
/// window accumulator and recovery stream.
WindowTable build_window_table(std::span<const Packet> capture,
                               const std::vector<DeviceProfile>& roster,
                               double duration_s, double window_s) {
  static obs::Timer& timer =
      obs::MetricsRegistry::instance().timer("net.arena.window_table");
  obs::ScopedTimer span(timer);

  DeviceSlots slots;
  for (const auto& device : roster) slots.add(device.ip);
  const auto num_windows = full_window_count(duration_s, window_s);
  ModalScratch scratch;
  std::vector<WindowAccumulator> accumulators;
  std::vector<RecoveryStream> recovery;
  accumulators.reserve(roster.size());
  recovery.reserve(roster.size());
  for (const auto& device : roster) {
    accumulators.emplace_back(device.ip, window_s,
                              /*keep_idle_windows=*/true);
    recovery.emplace_back(window_s, num_windows, scratch);
  }
  std::uint64_t routed = 0;
  for (const auto& p : capture) {
    if (is_lan(p.src_ip) && is_lan(p.dst_ip)) continue;  // never on the WAN
    int slot = slots[p.src_ip];
    if (slot < 0) slot = slots[p.dst_ip];
    if (slot < 0) continue;
    const auto d = static_cast<std::size_t>(slot);
    accumulators[d].add(p);
    recovery[d].add(p.timestamp_s, p.size_bytes);
    ++routed;
  }

  WindowTable table;
  for (std::size_t d = 0; d < roster.size(); ++d) {
    const auto rows = accumulators[d].finish(duration_s);
    const auto rec = recovery[d].finish();
    PMIOT_ASSERT(rows.size() == num_windows,
                 "window accumulator and recovery stream disagree");
    for (const auto& row : rows) {
      const auto* r = rec.data() + row.window_index * kNumRecoveryFeatures;
      // total == 0 implies both packet rates are zero, and vice versa.
      const bool silent = row.features[kFeaturePktRateUp] == 0.0 &&
                          row.features[kFeaturePktRateDown] == 0.0;
      auto ext = row.features;
      ext.insert(ext.end(), r, r + kNumRecoveryFeatures);
      table.base.push_back(row.features);
      table.ext.push_back(std::move(ext));
      table.silent.push_back(silent);
      table.label.push_back(static_cast<int>(roster[d].type));
    }
  }
  packets_routed_counter().add(routed);
  windows_counter().add(table.label.size());
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

bool has_visible_window(const WindowTable& table) {
  return std::find(table.silent.begin(), table.silent.end(), false) !=
         table.silent.end();
}

/// One attack's trained model. `model` is null for a blinded attacker:
/// fewer than two visible training windows.
struct FittedAttack {
  std::unique_ptr<ml::Classifier> model;
  ml::StandardScaler scaler;  ///< fitted for the kNN backend only
};

FittedAttack fit_attack(const SupervisedFingerprintAttack& attack,
                        const WindowTable& train_table, std::uint64_t seed) {
  FittedAttack fitted;
  auto train = training_rows(train_table, attack.recovery);
  if (train.size() < 2) return fitted;
  if (attack.backend == SupervisedFingerprintAttack::Backend::kKnn) {
    fitted.scaler.fit(train);
    fitted.scaler.transform_in_place(train);
    fitted.model = std::make_unique<ml::KnnClassifier>(5);
  } else {
    fitted.model =
        std::make_unique<ml::RandomForest>(ml::ForestOptions{}, seed);
  }
  fitted.model->fit(train);
  return fitted;
}

AttackScore score_attack(const SupervisedFingerprintAttack& attack,
                         const FittedAttack& fitted, const WindowTable& test) {
  std::vector<int> predicted(test.label.size(), kSilentClass);
  ml::Dataset query;
  std::vector<std::size_t> query_rows;
  for (std::size_t i = 0; i < test.label.size(); ++i) {
    if (test.silent[i]) continue;
    query.append(attack.recovery ? test.ext[i] : test.base[i], test.label[i]);
    query_rows.push_back(i);
  }
  if (fitted.model && !query_rows.empty()) {
    if (fitted.scaler.fitted()) fitted.scaler.transform_in_place(query);
    const auto votes = fitted.model->predict_all(query);
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      predicted[query_rows[q]] = votes[q];
    }
  } else {
    // No model: every visible test window gets the best uninformed guess,
    // class 0.
    for (const auto i : query_rows) predicted[i] = 0;
  }
  const ml::ConfusionMatrix confusion(predicted, test.label,
                                      kSilentClass + 1);
  return AttackScore{attack.name, confusion.mcc(), confusion.accuracy()};
}

std::vector<SupervisedFingerprintAttack> panel_of(const ArenaOptions& o) {
  if (o.attacks.empty()) return fingerprint_attacks();
  std::vector<SupervisedFingerprintAttack> panel;
  for (const auto& name : o.attacks) {
    panel.push_back(make_fingerprint_attack(name));
  }
  return panel;
}

/// `par::parallel_for` over [0, n) under the wall timer `name`: one per
/// batch of `run_arena`.
template <typename Fn>
void timed_parallel_for(const char* name, std::size_t n, Fn&& fn) {
  obs::ScopedTimer span(obs::MetricsRegistry::instance().timer(name));
  par::parallel_for(0, n, std::forward<Fn>(fn));
}

/// `TrafficDefense::apply` under its `net.shape.<defense>` stage timer.
ShapedCapture shape(const TrafficDefense& defense, const HomeNetwork& home,
                    double duration_s, double intensity, Rng& rng) {
  obs::ScopedTimer span(
      obs::MetricsRegistry::instance().timer("net.shape." + defense.name()));
  auto shaped = defense.apply(home, duration_s, intensity, rng);
  if (shaped.packets.size() > home.packets.size()) {
    packets_added_counter().add(shaped.packets.size() - home.packets.size());
  }
  return shaped;
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
  static const std::vector<std::string> names(kRecoveryFeatureNames.begin(),
                                              kRecoveryFeatureNames.end());
  return names;
}

std::vector<double> extract_recovery_features(std::span<const Packet> packets,
                                              std::uint32_t device_ip,
                                              double t0, double t1) {
  // Reused across calls on a thread: a fresh scratch would zero 256 KiB
  // per window.
  static thread_local ModalScratch scratch;
  RecoveryWindow window;
  window.open(t0, t1);
  double last = -std::numeric_limits<double>::infinity();
  for (const auto& p : packets) {
    PMIOT_CHECK(p.timestamp_s >= last, kOrderMessage);
    last = p.timestamp_s;
    if (p.timestamp_s < t0 || p.timestamp_s >= t1) continue;
    if (p.src_ip != device_ip && p.dst_ip != device_ip) continue;
    window.add(p.timestamp_s, p.size_bytes);
  }
  std::vector<double> f(kNumRecoveryFeatures);
  window.close(scratch, f.data());
  return f;
}

std::vector<WindowRow> windowed_recovery_features(
    std::span<const Packet> packets, std::uint32_t device_ip,
    double duration_s, double window_s) {
  PMIOT_CHECK(window_s > 0.0 && duration_s >= window_s,
              "need at least one full window");
  const auto num_windows = full_window_count(duration_s, window_s);
  ModalScratch scratch;
  RecoveryStream stream(window_s, num_windows, scratch);
  double last = -std::numeric_limits<double>::infinity();
  for (const auto& p : packets) {
    PMIOT_CHECK(p.timestamp_s >= last, kOrderMessage);
    last = p.timestamp_s;
    if (p.src_ip != device_ip && p.dst_ip != device_ip) continue;
    stream.add(p.timestamp_s, p.size_bytes);
  }
  const auto flat = stream.finish();
  std::vector<WindowRow> rows(num_windows);
  for (std::size_t k = 0; k < num_windows; ++k) {
    const auto* r = flat.data() + k * kNumRecoveryFeatures;
    rows[k] = WindowRow{k, std::vector<double>(r, r + kNumRecoveryFeatures)};
  }
  return rows;
}

void validate(const ArenaOptions& options) {
  PMIOT_CHECK(!options.defenses.empty() && !options.intensities.empty(),
              "empty arena grid");
  for (const auto& name : options.defenses) (void)make_traffic_defense(name);
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

ArenaResult run_arena(const ArenaOptions& o) {
  validate(o);
  const auto panel = panel_of(o);
  const auto num_cells = o.defenses.size() * o.intensities.size();
  const auto defense_of = [&](std::size_t cell) -> const std::string& {
    return o.defenses[cell / o.intensities.size()];
  };
  const auto intensity_of = [&](std::size_t cell) {
    return o.intensities[cell % o.intensities.size()];
  };
  // All cell randomness hangs off (seed, cell index) — never off which
  // thread got there first.
  const auto cell_seed = [&](std::size_t cell) {
    return par::shard_seed(par::shard_seed(o.seed, kCellSalt), cell);
  };

  // Set-up: the attacker's lab home (h = 0) and the observed home (h = 1),
  // and the raw window table of each.
  constexpr std::size_t kHomes = 2;
  std::array<HomeNetwork, kHomes> homes;
  std::array<WindowTable, kHomes> raw;
  timed_parallel_for("net.arena.setup", kHomes, [&](std::size_t h) {
    Rng rng(par::shard_seed(o.seed, h == 0 ? kTrainHomeSalt : kTestHomeSalt));
    homes[h] = simulate_home_network(h == 0 ? o.train_instances_per_type
                                            : o.test_instances_per_type,
                                     o.duration_s, rng);
    raw[h] = build_window_table(homes[h].packets, homes[h].devices,
                                o.duration_s, o.window_s);
  });

  // Phase 1: the pre-trained attacks' models — fitted once on raw traffic
  // with one arena-wide seed, so every cell scores the same model — and,
  // for every cell with θ > 0, each home shaped and windowed. A θ = 0 cell
  // shapes nothing: the `TrafficDefense` contract makes its capture the
  // raw one with a zero bill, so it reads the raw tables.
  std::vector<std::size_t> pretrained_attacks;
  for (std::size_t a = 0; a < panel.size(); ++a) {
    if (!panel[a].adaptive) pretrained_attacks.push_back(a);
  }
  std::vector<std::size_t> shaped_cells;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    if (intensity_of(cell) > 0.0) shaped_cells.push_back(cell);
  }
  std::vector<FittedAttack> pretrained(panel.size());
  std::vector<WindowTable> shaped(num_cells * kHomes);
  ArenaResult result;
  result.cells.resize(num_cells);
  const auto num_fits = pretrained_attacks.size();
  timed_parallel_for(
      "net.arena.shape_and_window", num_fits + shaped_cells.size() * kHomes,
      [&](std::size_t task) {
        if (task < num_fits) {
          const auto a = pretrained_attacks[task];
          pretrained[a] = fit_attack(panel[a], raw[0],
                                     par::shard_seed(o.seed, kPretrainedSalt));
          return;
        }
        const auto cell = shaped_cells[(task - num_fits) / kHomes];
        const auto h = (task - num_fits) % kHomes;
        const auto defense = make_traffic_defense(defense_of(cell));
        Rng rng(par::shard_seed(cell_seed(cell), h));
        const auto capture =
            shape(*defense, homes[h], o.duration_s, intensity_of(cell), rng);
        shaped[cell * kHomes + h] =
            build_window_table(capture.packets, homes[h].devices,
                               o.duration_s, o.window_s);
        if (h == 1) {  // the bill is read off the observed home
          result.cells[cell].added_bytes_fraction =
              capture.added_bytes_fraction();
          result.cells[cell].mean_added_latency_s =
              capture.mean_added_latency_s();
        }
      });
  const auto table = [&](std::size_t cell,
                         std::size_t h) -> const WindowTable& {
    return intensity_of(cell) > 0.0 ? shaped[cell * kHomes + h] : raw[h];
  };

  // Phase 2: one task per (cell, attack). A pre-trained attack only scores;
  // an adaptive one retrains on the cell's shaped lab home first, unless
  // the observed home shows it nothing to score.
  std::vector<AttackScore> scores(num_cells * panel.size());
  timed_parallel_for(
      "net.arena.fit_and_score", scores.size(), [&](std::size_t task) {
        const auto cell = task / panel.size();
        const auto a = task % panel.size();
        const auto& attack = panel[a];
        const auto& test = table(cell, 1);
        FittedAttack adapted;
        if (attack.adaptive && has_visible_window(test)) {
          adapted = fit_attack(attack, table(cell, 0),
                               par::shard_seed(cell_seed(cell), 2 + a));
        }
        scores[task] = score_attack(
            attack, attack.adaptive ? adapted : pretrained[a], test);
      });

  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    auto& c = result.cells[cell];
    c.defense = defense_of(cell);
    c.intensity = intensity_of(cell);
    for (std::size_t a = 0; a < panel.size(); ++a) {
      const auto& score = scores[cell * panel.size() + a];
      if (!panel[a].adaptive) c.naive_mcc = std::max(c.naive_mcc, score.mcc);
      // Privacy is read under the strongest attacker, whoever that is — at
      // some cells (decoy at full blast) the pre-trained model out-scores
      // the retrained ones, and crediting the defense for confusing only
      // adaptive attackers would overstate protection.
      c.privacy_mcc = std::max(c.privacy_mcc, score.mcc);
      c.attacks.push_back(score);
    }
  }
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
