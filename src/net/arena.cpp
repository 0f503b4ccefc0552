#include "net/arena.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
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

/// Modal-count scratch reused by every recovery window a thread closes:
/// dense counts for values in [0, kDenseValues), reset through the
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

/// The two modal counts one recovery window takes at close.
struct RecoveryScratch {
  ModalScratch iats;   ///< IAT bins
  ModalScratch sizes;  ///< wire sizes
};

/// `std::lround` of a non-negative gap in 10 ms units, without the libm
/// call below 2^30 units: truncation, then up when the fraction is at
/// least one half. The fraction is exact: the truncation is 0 below 1, and
/// lies in [x/2, x] from 1 on.
long round_gap_bin(double x) {
  if (!(x < 0x1p30)) return std::lround(x);
  const auto whole = static_cast<long>(x);
  return x - static_cast<double>(whole) >= 0.5 ? whole + 1 : whole;
}

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
  /// `reference::extract_recovery_features` — in one pass over the held
  /// packets and a second over the IATs only when the modal gap is
  /// positive.
  void close(RecoveryScratch& scratch, double* out) const {
    std::fill(out, out + kNumRecoveryFeatures, 0.0);
    if (times_.empty()) return;
    // Periodicity recovery bins the IATs at 10 ms for the modal gap: a
    // shaper's slot cadence concentrates mass in one bin, while its queue
    // overflow shows up as gaps far *below* the mode. The peak 1 s packet
    // rate counts bucket runs: bucket indices never decrease over sorted
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
    for (std::size_t i = 0; i < times_.size(); ++i) {
      const double t = times_[i];
      if (i > 0) scratch.iats.add(round_gap_bin((t - times_[i - 1]) * 100.0));
      const auto b = bucket_of(t);
      if (b != bucket) {
        burst = std::max(burst, rate(bucket, count));
        bucket = b;
        count = 0;
      }
      ++count;
      scratch.sizes.add(sizes_[i]);
    }
    if (times_.size() >= 2) {
      const auto mode = scratch.iats.take_mode();
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
    out[2] = std::max(burst, rate(bucket, count));
    out[3] = static_cast<double>(scratch.sizes.take_mode().count) /
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
                 RecoveryScratch& scratch)
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
  RecoveryScratch* scratch_;
  std::size_t current_ = 0;
  RecoveryWindow window_;
  std::vector<double> rows_;
};

/// Modal-count scratch for the current thread: reused across windows and
/// tables, since a fresh one zeroes 512 KiB. Always left empty.
RecoveryScratch& recovery_scratch() {
  static thread_local RecoveryScratch scratch;
  return scratch;
}

/// Doubles per window row: the `feature_names()` vector, then the recovery
/// features.
std::size_t row_width() {
  return feature_names().size() + kNumRecoveryFeatures;
}

/// One roster device's windows, row-major: row k is window k's
/// `feature_names()` vector followed by its recovery features.
struct DeviceWindows {
  std::vector<double> rows;
  std::vector<std::uint8_t> silent;  ///< per window: no attributable packets
};

/// Every roster device's windows in one home, defense-agnostic: what both
/// training-set assembly and scoring consume. A device's windows are
/// shared where they are equal: a device a defense leaves alone has its
/// raw windows, and a device it drops has the shared silent windows.
struct WindowTable {
  std::vector<std::shared_ptr<const DeviceWindows>> devices;  ///< roster
  std::vector<int> label;  ///< per roster device: its actual type
};

/// Windows roster device `d` of `home`: `raw` (the device's own stream,
/// or none) merged with the packets of `added` that `wan_slot` gives the
/// device, raw first on ties, straight into a `WindowAccumulator` and a
/// recovery stream. Both inputs are time-sorted.
std::shared_ptr<const DeviceWindows> window_stream(
    const RoutedHome& home, std::size_t d, std::span<const Packet> raw,
    std::span<const Packet> added, double window_s) {
  static obs::Timer& timer =
      obs::MetricsRegistry::instance().timer("net.arena.window_stream");
  obs::ScopedTimer span(timer);

  const double duration_s = home.duration_s();
  const auto num_windows = full_window_count(duration_s, window_s);
  WindowAccumulator accumulator(home.home().devices[d].ip, window_s,
                                /*keep_idle_windows=*/true);
  RecoveryStream recovery(window_s, num_windows, recovery_scratch());
  const auto feed = [&](const Packet& p) {
    accumulator.add(p);  // checks the time order first
    recovery.add(p.timestamp_s, p.size_bytes);
  };
  std::size_t next_raw = 0;
  for (const auto& p : added) {
    const int slot = wan_slot(home.slots(), p);
    if (slot < 0) continue;  // LAN–LAN chatter: never on the WAN
    PMIOT_ASSERT(static_cast<std::size_t>(slot) == d,
                 "emitted packet belongs to another device");
    while (next_raw < raw.size() &&
           raw[next_raw].timestamp_s <= p.timestamp_s) {
      feed(raw[next_raw++]);
    }
    feed(p);
  }
  for (; next_raw < raw.size(); ++next_raw) feed(raw[next_raw]);

  const auto rows = accumulator.finish(duration_s);
  const auto rec = recovery.finish();
  PMIOT_ASSERT(rows.size() == num_windows,
               "window accumulator and recovery stream disagree");
  const auto width = row_width();
  auto out = std::make_shared<DeviceWindows>();
  out->rows.resize(num_windows * width);
  out->silent.resize(num_windows);
  for (std::size_t k = 0; k < num_windows; ++k) {
    const auto& f = rows[k].features;
    double* row = out->rows.data() + k * width;
    std::copy(f.begin(), f.end(), row);
    std::copy_n(rec.data() + k * kNumRecoveryFeatures, kNumRecoveryFeatures,
                row + f.size());
    // total == 0 implies both packet rates are zero, and vice versa.
    out->silent[k] =
        f[kFeaturePktRateUp] == 0.0 && f[kFeaturePktRateDown] == 0.0;
  }
  return out;
}

/// Device `d`'s raw windows: its own stream, nothing added.
std::shared_ptr<const DeviceWindows> raw_windows(const RoutedHome& home,
                                                 std::size_t d,
                                                 double window_s) {
  return window_stream(home, d, home.stream(d), {}, window_s);
}

/// The windows of a device the WAN observer cannot see: all zero, silent.
std::shared_ptr<const DeviceWindows> silent_windows(std::size_t num_windows) {
  auto out = std::make_shared<DeviceWindows>();
  out->rows.assign(num_windows * row_width(), 0.0);
  out->silent.assign(num_windows, 1);
  return out;
}

/// A table of the roster's labels, with no windows yet.
WindowTable blank_table(const std::vector<DeviceProfile>& roster) {
  WindowTable table;
  table.devices.resize(roster.size());
  for (const auto& device : roster) {
    table.label.push_back(static_cast<int>(device.type));
  }
  return table;
}

/// The window table of one shaped home, device by device from the
/// emission: a dropped device gets `silent`, and a kept device the
/// defense added nothing to a null entry, for its raw windows (which
/// `run_arena` builds in the same batch).
WindowTable shaped_table(const RoutedHome& home, const Emission& emission,
                         const std::shared_ptr<const DeviceWindows>& silent,
                         double window_s) {
  using Raw = DeviceEmission::Raw;
  auto table = blank_table(home.home().devices);
  for (std::size_t d = 0; d < table.devices.size(); ++d) {
    const auto& device = emission.devices[d];
    if (device.raw == Raw::kDropped) {
      table.devices[d] = silent;
    } else if (device.raw == Raw::kReplaced) {
      table.devices[d] = window_stream(home, d, {}, device.packets, window_s);
    } else if (!device.packets.empty()) {
      table.devices[d] =
          window_stream(home, d, home.stream(d), device.packets, window_s);
    }
  }
  return table;
}

/// The table's visible windows as a dataset, device by device and window
/// by window, each row the features `attack` reads: the base vector, plus
/// the recovery features when it sets `recovery`.
ml::Dataset training_rows(const WindowTable& table,
                          const SupervisedFingerprintAttack& attack) {
  const auto stride = row_width();
  const auto width = attack.recovery ? stride : feature_names().size();
  ml::Dataset data;
  for (std::size_t d = 0; d < table.devices.size(); ++d) {
    const auto& windows = *table.devices[d];
    for (std::size_t k = 0; k < windows.silent.size(); ++k) {
      if (windows.silent[k]) continue;
      const double* row = windows.rows.data() + k * stride;
      data.append(std::vector<double>(row, row + width), table.label[d]);
    }
  }
  return data;
}

bool has_visible_window(const WindowTable& table) {
  for (const auto& windows : table.devices) {
    if (std::find(windows->silent.begin(), windows->silent.end(), 0) !=
        windows->silent.end()) {
      return true;
    }
  }
  return false;
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
  auto train = training_rows(train_table, attack);
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
  // Every window is scored: a silent one as the silent class, a visible
  // one by the model. Rows run device by device, window by window.
  std::vector<int> predicted, actual;
  std::vector<std::size_t> query_rows;
  for (std::size_t d = 0; d < test.devices.size(); ++d) {
    for (const auto silent : test.devices[d]->silent) {
      if (!silent) query_rows.push_back(actual.size());
      predicted.push_back(kSilentClass);
      actual.push_back(test.label[d]);
    }
  }
  if (fitted.model && !query_rows.empty()) {
    auto query = training_rows(test, attack);
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
  const ml::ConfusionMatrix confusion(predicted, actual, kSilentClass + 1);
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

/// `TrafficDefense::emit` under its `net.shape.<defense>` stage timer.
/// `net.shape.packets_added` counts what the assembled capture would gain.
Emission shape(const TrafficDefense& defense, const RoutedHome& home,
               double intensity, Rng& rng) {
  obs::ScopedTimer span(
      obs::MetricsRegistry::instance().timer("net.shape." + defense.name()));
  auto emission = defense.emit(home, intensity, rng);
  const auto before = home.capture_size();
  if (const auto after = shaped_size(home, emission); after > before) {
    packets_added_counter().add(after - before);
  }
  return emission;
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
  window.close(recovery_scratch(), f.data());
  return f;
}

std::vector<WindowRow> windowed_recovery_features(
    std::span<const Packet> packets, std::uint32_t device_ip,
    double duration_s, double window_s) {
  PMIOT_CHECK(window_s > 0.0 && duration_s >= window_s,
              "need at least one full window");
  const auto num_windows = full_window_count(duration_s, window_s);
  RecoveryStream stream(window_s, num_windows, recovery_scratch());
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

std::vector<std::vector<WindowRow>> arena_windows(const RoutedHome& home,
                                                  const Emission* emission,
                                                  double window_s) {
  PMIOT_CHECK(window_s > 0.0 && home.duration_s() >= window_s,
              "need at least one full window");
  const auto num_windows = full_window_count(home.duration_s(), window_s);
  auto table = emission == nullptr
                   ? blank_table(home.home().devices)
                   : shaped_table(home, *emission, silent_windows(num_windows),
                                  window_s);
  const auto width = row_width();
  std::vector<std::vector<WindowRow>> out(table.devices.size());
  for (std::size_t d = 0; d < table.devices.size(); ++d) {
    if (!table.devices[d]) table.devices[d] = raw_windows(home, d, window_s);
    const auto& rows = table.devices[d]->rows;
    for (std::size_t k = 0; k < num_windows; ++k) {
      const auto* row = rows.data() + k * width;
      out[d].push_back(WindowRow{k, std::vector<double>(row, row + width)});
    }
  }
  return out;
}

void validate(const ArenaOptions& options) {
  PMIOT_CHECK(!options.defenses.empty() && !options.intensities.empty(),
              "empty arena grid");
  for (const auto& name : options.defenses) (void)make_traffic_defense(name);
  std::size_t shaped_cells = 0;
  for (const double i : options.intensities) {
    PMIOT_CHECK(i >= 0.0 && i <= 1.0, "intensity must be within [0, 1]");
    shaped_cells += i > 0.0 ? options.defenses.size() : 0;
  }
  PMIOT_CHECK(options.train_instances_per_type >= 1 &&
                  options.test_instances_per_type >= 1,
              "arena needs >= 1 instance per device type");
  PMIOT_CHECK(std::isfinite(options.duration_s), "duration must be finite");
  PMIOT_CHECK(options.window_s > 0.0 && options.duration_s >= options.window_s,
              "need at least one full window");
  // In floating point, so the product cannot wrap; it is far below 2^53
  // whenever it passes.
  const double devices =
      static_cast<double>(kNumDeviceTypes) *
      (static_cast<double>(options.train_instances_per_type) +
       static_cast<double>(options.test_instances_per_type));
  const double table_bytes =
      devices * static_cast<double>(1 + shaped_cells) *
      static_cast<double>(full_window_count(options.duration_s,
                                            options.window_s)) *
      static_cast<double>(row_width() * sizeof(double) + 1);
  PMIOT_CHECK(table_bytes <= static_cast<double>(kMaxTableBytes),
              "arena window tables exceed kMaxTableBytes (4 GiB)");
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
  // each drawn as per-device streams and checked once.
  constexpr std::size_t kHomes = 2;
  std::array<std::optional<RoutedHome>, kHomes> routed;
  timed_parallel_for("net.arena.setup", kHomes, [&](std::size_t h) {
    Rng rng(par::shard_seed(o.seed, h == 0 ? kTrainHomeSalt : kTestHomeSalt));
    routed[h].emplace(
        simulate_home_streams(h == 0 ? o.train_instances_per_type
                                     : o.test_instances_per_type,
                              o.duration_s, rng),
        o.duration_s);
    packets_routed_counter().add(routed[h]->stream_packets());
  });

  // Phase 1: each cell with θ > 0 shapes each home and windows it device by
  // device from the emission; then, short tasks that fill in behind, every
  // (home, device)'s raw windows. A θ = 0 cell shapes nothing: the
  // `TrafficDefense` contract makes its capture the raw one with a zero
  // bill, so it reads the raw tables.
  std::vector<std::size_t> shaped_cells;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    if (intensity_of(cell) > 0.0) shaped_cells.push_back(cell);
  }
  const auto num_windows = full_window_count(o.duration_s, o.window_s);
  const auto silent = silent_windows(num_windows);
  std::array<WindowTable, kHomes> raw;
  std::vector<std::pair<std::size_t, std::size_t>> raw_streams;
  for (std::size_t h = 0; h < kHomes; ++h) {
    raw[h] = blank_table(routed[h]->home().devices);
    for (std::size_t d = 0; d < raw[h].devices.size(); ++d) {
      raw_streams.emplace_back(h, d);
    }
  }
  std::vector<WindowTable> shaped(num_cells * kHomes);
  ArenaResult result;
  result.cells.resize(num_cells);
  const auto num_shaping = shaped_cells.size() * kHomes;
  timed_parallel_for(
      "net.arena.shape_and_window", num_shaping + raw_streams.size(),
      [&](std::size_t task) {
        if (task >= num_shaping) {
          const auto [h, d] = raw_streams[task - num_shaping];
          raw[h].devices[d] = raw_windows(*routed[h], d, o.window_s);
          return;
        }
        const auto cell = shaped_cells[task / kHomes];
        const auto h = task % kHomes;
        const auto defense = make_traffic_defense(defense_of(cell));
        Rng rng(par::shard_seed(cell_seed(cell), h));
        const auto emission =
            shape(*defense, *routed[h], intensity_of(cell), rng);
        shaped[cell * kHomes + h] =
            shaped_table(*routed[h], emission, silent, o.window_s);
        if (h == 1) {  // the bill is read off the observed home
          result.cells[cell].added_bytes_fraction =
              emission.added_bytes_fraction();
          result.cells[cell].mean_added_latency_s =
              emission.mean_added_latency_s();
        }
      });
  for (std::size_t h = 0; h < kHomes; ++h) {
    windows_counter().add(raw[h].devices.size() * num_windows);
  }
  for (const auto cell : shaped_cells) {
    for (std::size_t h = 0; h < kHomes; ++h) {
      auto& table = shaped[cell * kHomes + h];
      windows_counter().add(table.devices.size() * num_windows);
      for (std::size_t d = 0; d < table.devices.size(); ++d) {
        if (!table.devices[d]) table.devices[d] = raw[h].devices[d];
      }
    }
  }
  const auto table = [&](std::size_t cell,
                         std::size_t h) -> const WindowTable& {
    return intensity_of(cell) > 0.0 ? shaped[cell * kHomes + h] : raw[h];
  };

  // Phase 2: each pre-trained attack's model, fitted once on raw traffic
  // with one arena-wide seed and then scoring every cell; and one task per
  // (cell, adaptive attack), which retrains on the cell's shaped lab home
  // and scores, unless the observed home shows it nothing to score.
  std::vector<std::size_t> pretrained_attacks, adaptive_attacks;
  for (std::size_t a = 0; a < panel.size(); ++a) {
    (panel[a].adaptive ? adaptive_attacks : pretrained_attacks).push_back(a);
  }
  std::vector<AttackScore> scores(num_cells * panel.size());
  const auto num_pretrained = pretrained_attacks.size();
  timed_parallel_for(
      "net.arena.fit_and_score",
      num_pretrained + num_cells * adaptive_attacks.size(),
      [&](std::size_t task) {
        if (task < num_pretrained) {
          const auto a = pretrained_attacks[task];
          const auto fitted = fit_attack(
              panel[a], raw[0], par::shard_seed(o.seed, kPretrainedSalt));
          for (std::size_t cell = 0; cell < num_cells; ++cell) {
            scores[cell * panel.size() + a] =
                score_attack(panel[a], fitted, table(cell, 1));
          }
          return;
        }
        const auto cell = (task - num_pretrained) / adaptive_attacks.size();
        const auto a =
            adaptive_attacks[(task - num_pretrained) % adaptive_attacks.size()];
        const auto& test = table(cell, 1);
        FittedAttack adapted;
        if (has_visible_window(test)) {
          adapted = fit_attack(panel[a], table(cell, 0),
                               par::shard_seed(cell_seed(cell), 2 + a));
        }
        scores[cell * panel.size() + a] =
            score_attack(panel[a], adapted, test);
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
