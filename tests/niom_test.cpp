// Tests for the NIOM occupancy attack: detectors, evaluation harness, and
// the paper's §II-A accuracy band on synthetic homes.
#include <gtest/gtest.h>

#include "common/error.h"
#include "niom/detector.h"
#include "niom/evaluate.h"
#include "obs/metrics.h"
#include "synth/home.h"

namespace pmiot::niom {
namespace {

synth::HomeTrace test_home(std::uint64_t seed = 42, int days = 10) {
  Rng rng(seed);
  return synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, days,
                              rng);
}

TEST(ThresholdNiom, DetectsOccupancyInBand) {
  const auto home = test_home();
  ThresholdNiom detector;
  const auto report =
      evaluate(detector, home.aggregate, home.occupancy, waking_hours());
  EXPECT_GT(report.accuracy, 0.65);
  EXPECT_LT(report.accuracy, 0.98);
  EXPECT_GT(report.mcc, 0.3);
}

TEST(HmmNiom, DetectsOccupancyInBand) {
  const auto home = test_home();
  HmmNiom detector;
  const auto report =
      evaluate(detector, home.aggregate, home.occupancy, waking_hours());
  EXPECT_GT(report.accuracy, 0.6);
  EXPECT_GT(report.mcc, 0.25);
}

TEST(Detectors, OutputLengthMatchesInput) {
  const auto home = test_home(7, 3);
  ThresholdNiom threshold;
  HmmNiom hmm;
  EXPECT_EQ(threshold.detect(home.aggregate).size(), home.aggregate.size());
  EXPECT_EQ(hmm.detect(home.aggregate).size(), home.aggregate.size());
}

TEST(Detectors, LabelsAreBinary) {
  const auto home = test_home(9, 3);
  ThresholdNiom detector;
  for (int v : detector.detect(home.aggregate)) {
    EXPECT_TRUE(v == 0 || v == 1);
  }
}

TEST(Detectors, FlatTraceReadsVacant) {
  // A constant trace has no activity signature at all; after night
  // calibration everything should read as a single class.
  ts::TimeSeries flat(ts::TraceMeta{CivilDate{2017, 6, 1}, 0, 60},
                      std::vector<double>(3 * kMinutesPerDay, 0.2));
  ThresholdNiom detector;
  const auto labels = detector.detect(flat);
  std::size_t ones = 0;
  for (int v : labels) ones += v;
  EXPECT_EQ(ones, 0u);
}

TEST(Detectors, WorkOnCoarserData) {
  const auto home = test_home(11, 7);
  const auto five_minute = home.aggregate.resample(300);
  ThresholdNiom detector;
  const auto report =
      evaluate(detector, five_minute, home.occupancy, waking_hours());
  EXPECT_GT(report.accuracy, 0.55);
}

TEST(Evaluate, WindowRestrictsScoring) {
  const auto home = test_home(13, 5);
  ThresholdNiom detector;
  const auto all_day = evaluate(detector, home.aggregate, home.occupancy);
  const auto waking =
      evaluate(detector, home.aggregate, home.occupancy, waking_hours());
  // Whole-day scoring includes sleeping hours, where occupied looks vacant,
  // so it must not beat waking-hours scoring.
  EXPECT_LE(all_day.accuracy, waking.accuracy + 0.02);
  EXPECT_EQ(all_day.confusion.total(), home.aggregate.size());
}

TEST(Evaluate, RejectsEmptyWindow) {
  const auto home = test_home(15, 2);
  ThresholdNiom detector;
  EvaluateOptions bad;
  bad.score_start_minute = 100;
  bad.score_end_minute = 100;
  EXPECT_THROW(evaluate(detector, home.aggregate, home.occupancy, bad),
               InvalidArgument);
}

TEST(Evaluate, RejectsWindowOutsideTheDay) {
  const auto home = test_home(15, 2);
  ThresholdNiom detector;
  SupervisedNiom supervised;
  supervised.fit(home.aggregate, home.occupancy);
  const auto predicted = detector.detect(home.aggregate);
  const auto rejected = [&](int start, int end) {
    const EvaluateOptions window{start, end};
    EXPECT_THROW(check_scoring_window(window), InvalidArgument);
    EXPECT_THROW(evaluate(detector, home.aggregate, home.occupancy, window),
                 InvalidArgument);
    EXPECT_THROW(supervised.detect(home.aggregate, window), InvalidArgument);
    EXPECT_THROW(score_predictions("x", predicted, home.aggregate,
                                   home.occupancy, window),
                 InvalidArgument);
  };
  rejected(-60, 10 * 60);           // start before midnight
  rejected(10 * 60, 2000);          // end past the day
  rejected(0, kMinutesPerDay + 1);  // one minute past the day
  rejected(-1, kMinutesPerDay);
  rejected(12 * 60, 11 * 60);       // end before start
  // Both bounds themselves are valid.
  EXPECT_NO_THROW(check_scoring_window({0, kMinutesPerDay}));
  EXPECT_NO_THROW(check_scoring_window({kMinutesPerDay - 1, kMinutesPerDay}));
  EXPECT_EQ(evaluate(detector, home.aggregate, home.occupancy,
                     {0, kMinutesPerDay})
                .confusion.total(),
            home.aggregate.size());
}

TEST(Evaluate, ScorePredictionsChecksLength) {
  const auto home = test_home(17, 2);
  std::vector<int> wrong(home.aggregate.size() - 1, 0);
  EXPECT_THROW(
      score_predictions("x", wrong, home.aggregate, home.occupancy),
      InvalidArgument);
}

TEST(AlignOccupancy, DownsamplesByMajority) {
  const auto home = test_home(19, 2);
  const auto quarter_hour = home.aggregate.resample(900);
  const auto aligned = align_occupancy(quarter_hour, home.occupancy);
  EXPECT_EQ(aligned.size(), quarter_hour.size());
}

TEST(AlignOccupancy, FailsWhenTruthTooShort) {
  const auto home = test_home(21, 2);
  std::vector<int> short_truth(100, 1);
  EXPECT_THROW(align_occupancy(home.aggregate, short_truth), InvalidArgument);
}

TEST(ThresholdNiom, OptionValidation) {
  ThresholdNiom::Options bad;
  bad.mean_factor = -1.0;
  EXPECT_THROW(ThresholdNiom{bad}, InvalidArgument);
  ThresholdNiom::Options empty_night;
  empty_night.night_start_minute = 300;
  empty_night.night_end_minute = 200;
  EXPECT_THROW(ThresholdNiom{empty_night}, InvalidArgument);
}

TEST(ThresholdNiom, RejectsTraceShorterThanWindow) {
  ts::TimeSeries tiny(ts::TraceMeta{CivilDate{2017, 6, 1}, 0, 60},
                      std::vector<double>(5, 0.1));
  ThresholdNiom detector;
  EXPECT_THROW(detector.detect(tiny), InvalidArgument);
}

TEST(SupervisedNiom, BeatsUnsupervisedWithLabels) {
  // One week of labelled history, one week of test data, same home.
  Rng rng(31);
  const auto train =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 5, 29}, 7, rng);
  const auto test =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 7, rng);
  SupervisedNiom supervised;
  supervised.fit(train.aggregate, train.occupancy);
  ThresholdNiom unsupervised;
  const auto s_report = evaluate(supervised, test.aggregate, test.occupancy,
                                 waking_hours());
  const auto u_report = evaluate(unsupervised, test.aggregate, test.occupancy,
                                 waking_hours());
  EXPECT_GT(s_report.accuracy, 0.65);
  EXPECT_GT(s_report.accuracy, u_report.accuracy - 0.05);
}

TEST(SupervisedNiom, RequiresFit) {
  const auto home = test_home(33, 2);
  SupervisedNiom detector;
  EXPECT_FALSE(detector.fitted());
  EXPECT_THROW(detector.detect(home.aggregate), InvalidArgument);
}

TEST(SupervisedNiom, RequiresBothClassesInTraining) {
  // A history with no vacant waking window has nothing to learn from: both
  // models degrade to a constant detector that answers the one class seen.
  Rng rng(35);
  auto cfg = synth::home_a();
  cfg.occupancy.employed = false;
  cfg.occupancy.weekend_errands_mean = 0.0;
  cfg.occupancy.evening_out_probability = 0.0;
  cfg.occupancy.vacation_probability = 0.0;
  const auto always_home =
      synth::simulate_home(cfg, CivilDate{2017, 6, 5}, 3, rng);
  for (const auto model :
       {SupervisedNiom::Model::kKnn, SupervisedNiom::Model::kForest}) {
    SupervisedNiom detector({.model = model});
    detector.fit(always_home.aggregate, always_home.occupancy);
    EXPECT_TRUE(detector.fitted());
    const auto labels = detector.detect(always_home.aggregate);
    EXPECT_EQ(labels, std::vector<int>(always_home.aggregate.size(), 1))
        << detector.name();
    const auto report = evaluate(detector, always_home.aggregate,
                                 always_home.occupancy, waking_hours());
    EXPECT_EQ(report.mcc, 0.0) << detector.name();
  }
}

TEST(SupervisedNiom, ForestModelBeatsChanceWithLabels) {
  // Same labelled week / test week as the k-NN case above.
  Rng rng(31);
  const auto train =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 5, 29}, 7, rng);
  const auto test =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 7, rng);
  SupervisedNiom forest({.model = SupervisedNiom::Model::kForest});
  EXPECT_EQ(forest.name(), "niom-supervised-forest");
  forest.fit(train.aggregate, train.occupancy);
  const auto report =
      evaluate(forest, test.aggregate, test.occupancy, waking_hours());
  EXPECT_GT(report.accuracy, 0.65);
  EXPECT_GT(report.mcc, 0.0);
}

/// Windows of `w` samples whose labels some scored sample reads, counted
/// sample by sample; the last window also labels the samples after it.
std::size_t touching_windows(const ts::TimeSeries& power, std::size_t w,
                             const EvaluateOptions& scored) {
  const std::size_t windows = power.size() / w;
  std::size_t touching = 0;
  for (std::size_t wi = 0; wi < windows; ++wi) {
    const std::size_t end = wi + 1 == windows ? power.size() : (wi + 1) * w;
    for (std::size_t t = wi * w; t < end; ++t) {
      const int mod = power.minute_of_day_at(t);
      if (mod >= scored.score_start_minute && mod < scored.score_end_minute) {
        ++touching;
        break;
      }
    }
  }
  return touching;
}

bool same_report(const NiomReport& a, const NiomReport& b) {
  return a.confusion.tp == b.confusion.tp && a.confusion.fp == b.confusion.fp &&
         a.confusion.tn == b.confusion.tn && a.confusion.fn == b.confusion.fn &&
         a.accuracy == b.accuracy && a.mcc == b.mcc &&
         a.precision == b.precision && a.recall == b.recall;
}

TEST(SupervisedNiom, ScopedDetectionScoresLikeFullDetection) {
  // Traces cut from a test home: first minute, length in minutes, and
  // sampling interval in seconds.
  struct Cut {
    const char* what;
    std::size_t first_minute;
    std::size_t minutes;
    int interval;
  };
  const Cut cuts[] = {
      {"midnight start, whole days", 0, 2 * kMinutesPerDay, 60},
      {"start 05:37, ragged end", 5 * 60 + 37, kMinutesPerDay + 611, 60},
      // 32 full windows end at 08:00; the 7-minute tail after the
      // night-only last window is all that waking hours score.
      {"ends 08:07", 0, 8 * 60 + 7, 60},
      {"start 22:50, ends 08:07 next day", 22 * 60 + 50, 9 * 60 + 17, 60},
      {"5-minute samples, start 13:12, ragged end", 13 * 60 + 12,
       kMinutesPerDay + 8 * 60 + 13, 300},
  };
  const EvaluateOptions scoring[] = {
      waking_hours(),
      EvaluateOptions{},
      {10 * 60, 10 * 60 + 1},          // a single minute
      {8 * 60, 8 * 60 + 7},            // only the tail of "ends 08:07"
      {10 * 60 + 2, 10 * 60 + 3},      // the 5-minute grid's minutes only
      {23 * 60 + 59, kMinutesPerDay},  // the last minute of the day
  };
  auto& registry = obs::MetricsRegistry::instance();
  auto& rows = registry.counter("ml.forest.rows_predicted");
  auto& tiles = registry.counter("ml.knn.tile_kernels");
  registry.reset_values_for_testing();
  obs::set_enabled_for_testing(true);
  Rng seeds(2024);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = seeds.next();
    Rng rng(seed);
    const auto train =
        synth::simulate_home(synth::home_a(), CivilDate{2017, 5, 29}, 5, rng);
    const auto test =
        synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 3, rng);
    for (const auto model :
         {SupervisedNiom::Model::kKnn, SupervisedNiom::Model::kForest}) {
      SupervisedNiom detector({.model = model, .seed = seed});
      detector.fit(train.aggregate, train.occupancy);
      for (const auto& cut : cuts) {
        const auto minute_trace =
            test.aggregate.slice(cut.first_minute, cut.minutes);
        const auto power = cut.interval == 60
                               ? minute_trace
                               : minute_trace.resample(cut.interval);
        const std::vector<int> truth(
            test.occupancy.begin() + static_cast<long>(cut.first_minute),
            test.occupancy.begin() +
                static_cast<long>(cut.first_minute + cut.minutes));
        const std::size_t w = static_cast<std::size_t>(15 * 60 / cut.interval);
        const auto full = detector.detect(power);
        const std::uint64_t full_tiles = tiles.value();
        for (const auto& window : scoring) {
          SCOPED_TRACE(::testing::Message()
                       << detector.name() << " seed " << seed << ", "
                       << cut.what << ", scoring [" << window.score_start_minute
                       << ", " << window.score_end_minute << ")");
          const std::size_t touching = touching_windows(power, w, window);
          registry.reset_values_for_testing();
          if (touching == 0) {
            EXPECT_THROW(evaluate(detector, power, truth, window),
                         InvalidArgument);
            EXPECT_THROW(score_predictions(detector.name(), full, power, truth,
                                           window),
                         InvalidArgument);
          } else {
            EXPECT_TRUE(same_report(
                evaluate(detector, power, truth, window),
                score_predictions(detector.name(), full, power, truth,
                                  window)));
          }
          if (model == SupervisedNiom::Model::kForest) {
            EXPECT_EQ(rows.value(), touching);
          } else {
            // Tile kernels are a fixed count per query row.
            EXPECT_EQ(tiles.value() * (power.size() / w),
                      full_tiles * touching);
          }
        }
        registry.reset_values_for_testing();
      }
    }
  }
  obs::set_enabled_for_testing(false);
  registry.reset_values_for_testing();
}

class NiomAccuracyBand : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NiomAccuracyBand, StaysAbove60PercentAcrossSeeds) {
  const auto home = test_home(GetParam(), 10);
  ThresholdNiom detector;
  const auto report =
      evaluate(detector, home.aggregate, home.occupancy, waking_hours());
  EXPECT_GT(report.accuracy, 0.6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NiomAccuracyBand,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace pmiot::niom
