// Unit tests for pmiot_timeseries: the TimeSeries container, window
// statistics, filters, edge detection, and ASCII rendering.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "timeseries/ascii_plot.h"
#include "timeseries/edges.h"
#include "timeseries/timeseries.h"

namespace pmiot::ts {
namespace {

TraceMeta minute_meta() { return TraceMeta{CivilDate{2017, 6, 1}, 0, 60}; }

TEST(TimeSeries, DefaultConstructedIsEmpty) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.meta().interval_seconds, 60);
}

TEST(TimeSeries, RejectsInvalidMeta) {
  EXPECT_THROW(TimeSeries(TraceMeta{CivilDate{2017, 2, 30}, 0, 60}),
               InvalidArgument);
  EXPECT_THROW(TimeSeries(TraceMeta{CivilDate{2017, 6, 1}, 1440, 60}),
               InvalidArgument);
  EXPECT_THROW(TimeSeries(TraceMeta{CivilDate{2017, 6, 1}, 0, 0}),
               InvalidArgument);
}

TEST(TimeSeries, SamplesPerDay) {
  EXPECT_EQ(TimeSeries(minute_meta()).samples_per_day(), 1440u);
  EXPECT_EQ(TimeSeries(TraceMeta{CivilDate{2017, 6, 1}, 0, 3600})
                .samples_per_day(),
            24u);
  TimeSeries weird(TraceMeta{CivilDate{2017, 6, 1}, 0, 7000});
  EXPECT_THROW(weird.samples_per_day(), InvalidArgument);
}

TEST(TimeSeries, DateAndMinuteIndexing) {
  TimeSeries s = make_zero_days(minute_meta(), 2);
  EXPECT_EQ(s.size(), 2880u);
  EXPECT_EQ(s.date_at(0), (CivilDate{2017, 6, 1}));
  EXPECT_EQ(s.minute_of_day_at(0), 0);
  EXPECT_EQ(s.minute_of_day_at(1439), 1439);
  EXPECT_EQ(s.date_at(1440), (CivilDate{2017, 6, 2}));
  EXPECT_EQ(s.minute_of_day_at(1440), 0);
}

TEST(TimeSeries, IndexingRespectsStartMinute) {
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 23 * 60, 60},
               std::vector<double>(120, 0.0));
  EXPECT_EQ(s.minute_of_day_at(0), 23 * 60);
  EXPECT_EQ(s.date_at(59), (CivilDate{2017, 6, 1}));
  EXPECT_EQ(s.date_at(60), (CivilDate{2017, 6, 2}));
  EXPECT_EQ(s.minute_of_day_at(60), 0);
}

TEST(TimeSeries, SliceCarriesMeta) {
  TimeSeries s = make_zero_days(minute_meta(), 2);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  const auto sliced = s.slice(1500, 10);
  EXPECT_EQ(sliced.size(), 10u);
  EXPECT_DOUBLE_EQ(sliced[0], 1500.0);
  EXPECT_EQ(sliced.meta().start_date, (CivilDate{2017, 6, 2}));
  EXPECT_EQ(sliced.meta().start_minute, 60);
  EXPECT_THROW(s.slice(2880, 1), InvalidArgument);
}

TEST(TimeSeries, SliceRejectsOverflowingRange) {
  const TimeSeries s(minute_meta(), std::vector<double>(10, 1.0));
  // first + count would wrap around std::size_t; the check must not.
  EXPECT_THROW(s.slice(5, std::numeric_limits<std::size_t>::max()),
               InvalidArgument);
  EXPECT_THROW(s.slice(std::numeric_limits<std::size_t>::max(), 2),
               InvalidArgument);
  EXPECT_THROW(s.slice(4, 7), InvalidArgument);
  EXPECT_EQ(s.slice(5, 5).size(), 5u);
  EXPECT_EQ(s.slice(10, 0).size(), 0u);
}

TEST(TimeSeries, ResampleAveragesBuckets) {
  TimeSeries s(minute_meta(), {1, 3, 5, 7, 2, 2});
  const auto coarse = s.resample(120);
  ASSERT_EQ(coarse.size(), 3u);
  EXPECT_DOUBLE_EQ(coarse[0], 2.0);
  EXPECT_DOUBLE_EQ(coarse[1], 6.0);
  EXPECT_DOUBLE_EQ(coarse[2], 2.0);
  EXPECT_EQ(coarse.meta().interval_seconds, 120);
}

TEST(TimeSeries, ResampleDropsPartialBucket) {
  TimeSeries s(minute_meta(), {1, 1, 1, 9});
  EXPECT_EQ(s.resample(180).size(), 1u);
}

TEST(TimeSeries, ResampleRejectsNonMultiple) {
  TimeSeries s(minute_meta(), {1, 2});
  EXPECT_THROW(s.resample(90), InvalidArgument);
}

TEST(TimeSeries, ArithmeticAndValidation) {
  TimeSeries a(minute_meta(), {1, 2, 3});
  TimeSeries b(minute_meta(), {10, 20, 30});
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum[1], 22.0);
  const auto diff = b - a;
  EXPECT_DOUBLE_EQ(diff[2], 27.0);
  TimeSeries wrong(TraceMeta{CivilDate{2017, 6, 2}, 0, 60}, {1, 2, 3});
  EXPECT_THROW(a += wrong, InvalidArgument);
}

TEST(TimeSeries, ScaleAndClamp) {
  TimeSeries a(minute_meta(), {-1, 0.5, 2});
  a.scale(2.0).clamp_min(0.0);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 4.0);
}

TEST(TimeSeries, EnergyIntegratesPower) {
  // 60 minutes at 1 kW = 1 kWh.
  TimeSeries s(minute_meta(), std::vector<double>(60, 1.0));
  EXPECT_NEAR(s.energy_kwh(), 1.0, 1e-12);
  // Hourly data: one sample of 2 kW = 2 kWh.
  TimeSeries hourly(TraceMeta{CivilDate{2017, 6, 1}, 0, 3600}, {2.0});
  EXPECT_NEAR(hourly.energy_kwh(), 2.0, 1e-12);
}

TEST(WindowStats, NonOverlapping) {
  const std::vector<double> xs{1, 1, 5, 5, 2, 2, 9};
  const auto ws = window_stats(xs, 2, 2);
  ASSERT_EQ(ws.size(), 3u);  // trailing odd sample dropped
  EXPECT_DOUBLE_EQ(ws[0].mean, 1.0);
  EXPECT_DOUBLE_EQ(ws[1].mean, 5.0);
  EXPECT_DOUBLE_EQ(ws[1].variance, 0.0);
  EXPECT_EQ(ws[2].first, 4u);
  EXPECT_DOUBLE_EQ(ws[2].range, 0.0);
}

TEST(WindowStats, Overlapping) {
  const std::vector<double> xs{0, 2, 4, 6};
  const auto ws = window_stats(xs, 2, 1);
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_DOUBLE_EQ(ws[0].mean, 1.0);
  EXPECT_DOUBLE_EQ(ws[2].mean, 5.0);
}

TEST(WindowStats, ShortInputYieldsNothing) {
  const std::vector<double> xs{1.0};
  EXPECT_TRUE(window_stats(xs, 2, 2).empty());
  EXPECT_THROW(window_stats(xs, 0, 1), InvalidArgument);
}

TEST(MovingAverage, SmoothsAndPreservesLength) {
  const std::vector<double> xs{0, 0, 10, 0, 0};
  const auto smooth = moving_average(xs, 1);
  ASSERT_EQ(smooth.size(), xs.size());
  EXPECT_NEAR(smooth[2], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(smooth[0], 0.0, 1e-12);
}

TEST(MedianFilter, KillsSpikesKeepsSteps) {
  std::vector<double> xs(20, 1.0);
  xs[10] = 100.0;  // lone spike
  const auto filtered = median_filter(xs, 2);
  EXPECT_DOUBLE_EQ(filtered[10], 1.0);
  // A genuine step survives.
  std::vector<double> step(20, 0.0);
  for (std::size_t i = 10; i < 20; ++i) step[i] = 5.0;
  const auto fstep = median_filter(step, 2);
  EXPECT_DOUBLE_EQ(fstep[15], 5.0);
  EXPECT_DOUBLE_EQ(fstep[5], 0.0);
}

TEST(Edges, DetectsSimpleSteps) {
  const std::vector<double> xs{0, 0, 2, 2, 2, 0, 0};
  const auto edges = detect_edges(xs, 1.0);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].index, 2u);
  EXPECT_DOUBLE_EQ(edges[0].delta, 2.0);
  EXPECT_TRUE(edges[0].rising());
  EXPECT_EQ(edges[1].index, 5u);
  EXPECT_DOUBLE_EQ(edges[1].delta, -2.0);
  EXPECT_FALSE(edges[1].rising());
}

TEST(Edges, MergesMonotoneRamp) {
  const std::vector<double> xs{0, 1, 2, 3, 3, 3};
  const auto edges = detect_edges(xs, 1.0);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_DOUBLE_EQ(edges[0].delta, 3.0);
  EXPECT_EQ(edges[0].index, 1u);
}

TEST(Edges, ThresholdFiltersSmallChanges) {
  const std::vector<double> xs{0, 0.2, 0, 0.2, 0};
  EXPECT_TRUE(detect_edges(xs, 0.5).empty());
  EXPECT_EQ(detect_edges(xs, 0.1).size(), 4u);
  EXPECT_THROW(detect_edges(xs, 0.0), InvalidArgument);
}

TEST(AsciiPlot, ProducesExpectedShape) {
  std::vector<double> xs(100, 0.0);
  for (std::size_t i = 40; i < 60; ++i) xs[i] = 3.0;
  PlotOptions options;
  options.width = 50;
  options.height = 5;
  const auto plot = ascii_plot(xs, options);
  EXPECT_NE(plot.find('#'), std::string::npos);
  // 5 rows + axis line.
  EXPECT_EQ(static_cast<int>(std::count(plot.begin(), plot.end(), '\n')), 6);
}

TEST(AsciiPlot, EmptySeries) {
  EXPECT_EQ(ascii_plot({}, PlotOptions{}), "(empty series)\n");
}

TEST(AsciiBinaryStrip, MajorityDownsampling) {
  std::vector<int> labels(100, 0);
  for (std::size_t i = 50; i < 100; ++i) labels[i] = 1;
  const auto strip = ascii_binary_strip(labels, 10);
  EXPECT_EQ(strip, ".....#####");
}

class ResampleFactors : public ::testing::TestWithParam<int> {};

TEST_P(ResampleFactors, EnergyIsPreserved) {
  // Mean-aggregation preserves total energy for exact multiples.
  const int factor = GetParam();
  TimeSeries s = make_zero_days(minute_meta(), 1);
  Rng rng(42);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = rng.uniform(0.0, 5.0);
  const auto coarse = s.resample(60 * factor);
  EXPECT_NEAR(coarse.energy_kwh(), s.energy_kwh(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Factors, ResampleFactors,
                         ::testing::Values(2, 3, 5, 15, 60, 1440));

}  // namespace
}  // namespace pmiot::ts
