#include "niom/detector.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "ml/hmm.h"
#include "synth/occupancy.h"

namespace pmiot::niom {
namespace {

/// Window length in samples for a trace; requires it to be at least one
/// sample and the trace to hold at least one window.
std::size_t window_samples(const ts::TimeSeries& power, int window_minutes) {
  PMIOT_CHECK(window_minutes >= 1, "window must be at least one minute");
  const int interval = power.meta().interval_seconds;
  PMIOT_CHECK((window_minutes * 60) % interval == 0,
              "window must be a multiple of the sampling interval");
  const auto w = static_cast<std::size_t>(window_minutes * 60 / interval);
  PMIOT_CHECK(power.size() >= w, "trace shorter than one detection window");
  return w;
}

/// True when any of the `count` samples from index `first` on has its
/// minute of day in `window`. Steps from one scored stretch of the day to
/// the next rather than visiting every sample.
bool any_sample_scored(const ts::TraceMeta& meta, std::size_t first,
                       std::size_t count, const EvaluateOptions& window) {
  // Minute of day m is scored iff its seconds of day lie in [begin, end).
  const long begin = static_cast<long>(window.score_start_minute) * 60;
  const long end = static_cast<long>(window.score_end_minute) * 60;
  const long origin = static_cast<long>(meta.start_minute) * 60;
  const long interval = meta.interval_seconds;
  for (std::size_t j = 0; j < count;) {
    const long second =
        (origin + static_cast<long>(first + j) * interval) % kSecondsPerDay;
    if (second >= begin && second < end) return true;
    const long until_scored =
        second < begin ? begin - second : kSecondsPerDay - second + begin;
    j += static_cast<std::size_t>((until_scored + interval - 1) / interval);
  }
  return false;
}

/// Expands per-window labels to per-sample labels.
std::vector<int> expand(const std::vector<int>& window_labels,
                        std::size_t window, std::size_t total) {
  std::vector<int> out(total, window_labels.empty() ? 0 : window_labels.back());
  for (std::size_t wi = 0; wi < window_labels.size(); ++wi) {
    for (std::size_t j = 0; j < window; ++j) {
      const std::size_t t = wi * window + j;
      if (t < total) out[t] = window_labels[wi];
    }
  }
  return out;
}

/// Median smoothing of binary labels with half-width `radius`.
void smooth_labels(std::vector<int>& labels, int radius) {
  if (radius <= 0 || labels.size() < 3) return;
  std::vector<int> src = labels;
  const auto r = static_cast<std::size_t>(radius);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::size_t lo = i >= r ? i - r : 0;
    const std::size_t hi = std::min(src.size() - 1, i + r);
    std::size_t ones = 0;
    for (std::size_t j = lo; j <= hi; ++j) ones += src[j] != 0 ? 1 : 0;
    labels[i] = 2 * ones > (hi - lo + 1) ? 1 : 0;
  }
}

}  // namespace

void check_scoring_window(const EvaluateOptions& window) {
  PMIOT_CHECK(window.score_start_minute >= 0 &&
                  window.score_start_minute < window.score_end_minute &&
                  window.score_end_minute <= kMinutesPerDay,
              "scoring window must satisfy 0 <= start < end <= minutes per day");
}

ThresholdNiom::ThresholdNiom(Options options) : options_(options) {
  PMIOT_CHECK(options.mean_factor > 0.0 && options.stddev_factor > 0.0,
              "threshold factors must be positive");
  PMIOT_CHECK(options.night_end_minute > options.night_start_minute,
              "empty night calibration window");
}

std::vector<int> ThresholdNiom::detect(const ts::TimeSeries& power,
                                       const EvaluateOptions&) const {
  const std::size_t w = window_samples(power, options_.window_minutes);
  const auto windows = ts::window_stats(power.values(), w, w);
  PMIOT_ASSERT(!windows.empty(), "no windows");

  // Calibrate on overnight windows: when everyone is asleep, only the
  // background loads run, so these windows estimate the vacant-like floor.
  std::vector<double> night_means, night_stds;
  for (const auto& win : windows) {
    const int mod = power.minute_of_day_at(win.first);
    if (mod >= options_.night_start_minute && mod < options_.night_end_minute) {
      night_means.push_back(win.mean);
      night_stds.push_back(std::sqrt(win.variance));
    }
  }
  // Fallback when the trace doesn't span a night: use the quietest quartile.
  if (night_means.size() < 4) {
    std::vector<double> all_means;
    for (const auto& win : windows) all_means.push_back(win.mean);
    const double q25 = stats::quantile(all_means, 0.25);
    night_means.clear();
    night_stds.clear();
    for (const auto& win : windows) {
      if (win.mean <= q25) {
        night_means.push_back(win.mean);
        night_stds.push_back(std::sqrt(win.variance));
      }
    }
  }
  PMIOT_ASSERT(!night_means.empty(), "no calibration windows");

  const double mean_base = stats::median(night_means);
  const double mean_spread =
      std::max(stats::stddev(night_means), 0.01 * std::max(mean_base, 0.05));
  const double std_base = stats::median(night_stds);
  const double std_spread =
      std::max(stats::stddev(night_stds), 0.005);

  const double mean_threshold = mean_base + options_.mean_factor * mean_spread;
  const double std_threshold = std_base + options_.stddev_factor * std_spread;

  std::vector<int> labels;
  labels.reserve(windows.size());
  for (const auto& win : windows) {
    const bool occupied = win.mean > mean_threshold ||
                          std::sqrt(win.variance) > std_threshold;
    labels.push_back(occupied ? 1 : 0);
  }
  smooth_labels(labels, options_.smooth_radius);
  return expand(labels, w, power.size());
}

namespace {

/// Window features of the supervised detector (both models): mean,
/// stddev and range.
constexpr std::size_t kWindowFeatures = 3;
std::array<double, kWindowFeatures> window_features(const ts::WindowStat& win) {
  return {win.mean, std::sqrt(win.variance), win.range};
}

/// Builds the supervised detector's waking-hours training set:
/// one feature row per waking window, majority occupancy as the label.
/// Training restricts to waking hours because overnight the home is occupied
/// but electrically idle, which would teach the classifier that quiet means
/// occupied and poison its daytime predictions. Returns the single observed
/// label when the trace carries only one class, -1 otherwise.
int build_waking_dataset(const ts::TimeSeries& power,
                         const std::vector<int>& occupancy_minutes,
                         std::size_t w, ml::Dataset& data) {
  const auto windows = ts::window_stats(power.values(), w, w);
  PMIOT_CHECK(windows.size() >= 8, "training trace too short");
  const int factor = power.meta().interval_seconds / 60;
  auto aligned = factor == 1
                     ? occupancy_minutes
                     : synth::downsample_occupancy(occupancy_minutes, factor);
  PMIOT_CHECK(aligned.size() >= power.size(),
              "occupancy does not cover the training trace");

  const EvaluateOptions waking = waking_hours();
  bool saw_occupied = false, saw_vacant = false;
  for (const auto& win : windows) {
    const int mod = power.minute_of_day_at(win.first);
    if (mod < waking.score_start_minute || mod >= waking.score_end_minute) {
      continue;
    }
    std::size_t ones = 0;
    for (std::size_t j = 0; j < w; ++j) ones += aligned[win.first + j] != 0;
    const int label = 2 * ones >= w ? 1 : 0;
    saw_occupied |= label == 1;
    saw_vacant |= label == 0;
    const auto x = window_features(win);
    data.append({x.begin(), x.end()}, label);
  }
  PMIOT_CHECK(saw_occupied || saw_vacant, "no waking-hours training windows");
  if (saw_occupied && saw_vacant) return -1;
  return saw_occupied ? 1 : 0;
}

}  // namespace

SupervisedNiom::SupervisedNiom(Options options)
    : options_(options),
      knn_(options.k),
      forest_(ml::ForestOptions{.num_trees = options.num_trees, .tree = {}},
              options.seed) {
  // k and num_trees are checked by the classifiers themselves.
  PMIOT_CHECK(options.window_minutes >= 1, "window must be positive");
}

std::string SupervisedNiom::name() const {
  return options_.model == Model::kKnn ? "niom-supervised-knn"
                                       : "niom-supervised-forest";
}

void SupervisedNiom::fit(const ts::TimeSeries& power,
                         const std::vector<int>& occupancy_minutes) {
  const std::size_t w = window_samples(power, options_.window_minutes);
  ml::Dataset data;
  constant_label_ = build_waking_dataset(power, occupancy_minutes, w, data);
  fitted_ = true;
  if (constant_label_ >= 0) return;
  if (options_.model == Model::kKnn) {
    scaler_.fit(data);
    scaler_.transform_in_place(data);
    knn_.fit(data);
  } else {
    // Trees split on raw thresholds, so no scaler is needed (or wanted: a
    // scaler fitted on the defended trace would leak the defense into the
    // attacker's model in a way the threat model does not grant).
    forest_.fit(data);
  }
}

std::vector<int> SupervisedNiom::detect(const ts::TimeSeries& power,
                                        const EvaluateOptions& scored) const {
  PMIOT_CHECK(fitted_, "call fit() before detect()");
  check_scoring_window(scored);
  if (constant_label_ >= 0) {
    return std::vector<int>(power.size(), constant_label_);
  }
  const std::size_t w = window_samples(power, options_.window_minutes);
  const auto windows = ts::window_stats(power.values(), w, w);
  // Classify every window a scored sample reads in one batch: the kNN
  // blocked kernel amortizes the training matrix over every query, and the
  // forest reads the features straight from one column block. The last
  // window also labels the samples after it (see expand).
  std::vector<std::size_t> classified;
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const std::size_t first = windows[wi].first;
    const std::size_t labelled =
        wi + 1 == windows.size() ? power.size() - first : w;
    if (any_sample_scored(power.meta(), first, labelled, scored)) {
      classified.push_back(wi);
    }
  }
  const std::size_t n = classified.size();
  std::vector<int> predicted;
  if (options_.model == Model::kKnn) {
    ml::Dataset queries;
    for (const std::size_t wi : classified) {
      queries.append(scaler_.transform(window_features(windows[wi])), 0);
    }
    predicted = knn_.predict_all(queries);
  } else {
    std::vector<double> columns(kWindowFeatures * n);
    for (std::size_t q = 0; q < n; ++q) {
      const auto x = window_features(windows[classified[q]]);
      for (std::size_t f = 0; f < kWindowFeatures; ++f) {
        columns[f * n + q] = x[f];
      }
    }
    predicted = forest_.predict_columns(columns, n);
  }
  std::vector<int> labels(windows.size(), 0);
  for (std::size_t q = 0; q < n; ++q) {
    labels[classified[q]] = predicted[q];
  }
  return expand(labels, w, power.size());
}

HmmNiom::HmmNiom(Options options) : options_(options) {
  PMIOT_CHECK(options.em_iterations >= 1, "need at least one EM iteration");
}

std::vector<int> HmmNiom::detect(const ts::TimeSeries& power,
                                 const EvaluateOptions&) const {
  const std::size_t w = window_samples(power, options_.window_minutes);
  const auto windows = ts::window_stats(power.values(), w, w);

  // Observation: log of (window mean + burstiness bonus) over the home's
  // quiet floor. Elevated and spiky usage both push toward the "occupied"
  // state, and the log-ratio keeps the two emission clusters separable for
  // homes with large always-on base loads.
  std::vector<double> raw;
  raw.reserve(windows.size());
  for (const auto& win : windows) {
    raw.push_back(win.mean + 0.5 * std::sqrt(win.variance));
  }
  PMIOT_CHECK(raw.size() >= 4, "trace too short for HMM NIOM");
  const double floor = std::max(stats::quantile(raw, 0.1), 0.02);
  std::vector<double> obs;
  obs.reserve(raw.size());
  for (double r : raw) obs.push_back(std::log(std::max(r, 0.01) / floor));

  Rng rng(options_.seed);
  auto hmm = ml::GaussianHmm::init_from_data(2, obs, rng);
  hmm.fit(obs, options_.em_iterations);
  const auto states = hmm.viterbi(obs);

  // init_from_data sorts states by mean, but EM may re-order them: pick the
  // higher-mean state as "occupied" explicitly.
  const int occupied_state =
      hmm.params().mean[0] >= hmm.params().mean[1] ? 0 : 1;
  std::vector<int> labels(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    labels[i] = states[i] == occupied_state ? 1 : 0;
  }
  return expand(labels, w, power.size());
}

}  // namespace pmiot::niom
