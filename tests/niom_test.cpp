// Tests for the NIOM occupancy attack: detectors, evaluation harness, and
// the paper's §II-A accuracy band on synthetic homes.
#include <gtest/gtest.h>

#include "common/error.h"
#include "niom/detector.h"
#include "niom/evaluate.h"
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
