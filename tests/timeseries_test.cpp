// Unit tests for pmiot_timeseries: the TimeSeries container, window
// statistics, filters, edge detection, and ASCII rendering.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include <sstream>

#include "timeseries/ascii_plot.h"
#include "timeseries/trace_io.h"
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

TEST(Edges, CountInRange) {
  const std::vector<double> xs{0, 2, 0, 2, 0, 2, 0};
  const auto edges = detect_edges(xs, 1.0);
  ASSERT_EQ(edges.size(), 6u);
  EXPECT_EQ(count_edges_in_range(edges, 0, 3), 2u);  // edges at indices 1, 2
  EXPECT_EQ(count_edges_in_range(edges, 0, xs.size()), edges.size());
  EXPECT_EQ(count_edges_in_range(edges, 100, 10), 0u);
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

TEST(TraceIo, RoundTripsThroughCsv) {
  Rng rng(1);
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 30, 300},
               std::vector<double>{});
  for (int i = 0; i < 100; ++i) s.push_back(rng.uniform(0.0, 8.0));
  std::ostringstream os;
  write_csv(os, s, 9);
  std::istringstream is(os.str());
  const auto loaded = read_csv(is);
  ASSERT_EQ(loaded.size(), s.size());
  EXPECT_EQ(loaded.meta(), s.meta());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(loaded[i], s[i], 1e-8);
  }
}

TEST(TraceIo, HeaderCarriesTimestamps) {
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60}, {1.0, 2.0});
  std::ostringstream os;
  write_csv(os, s);
  const auto text = os.str();
  EXPECT_NE(text.find("# pmiot-trace v1"), std::string::npos);
  EXPECT_NE(text.find("2017-06-01T00:00,"), std::string::npos);
  EXPECT_NE(text.find("2017-06-01T00:01,"), std::string::npos);
}

TEST(TraceIo, RoundTripsThroughCrlfCsv) {
  // A trace written or edited on Windows carries \r\n line endings; the
  // reader must strip the trailing \r from the header, the metadata line,
  // and every data row.
  Rng rng(7);
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 30, 300},
               std::vector<double>{});
  for (int i = 0; i < 50; ++i) s.push_back(rng.uniform(0.0, 8.0));
  std::ostringstream os;
  write_csv(os, s, 9);

  std::string crlf;
  for (char c : os.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream is(crlf);
  const auto loaded = read_csv(is);
  ASSERT_EQ(loaded.size(), s.size());
  EXPECT_EQ(loaded.meta(), s.meta());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(loaded[i], s[i], 1e-8);
  }

  // And a CRLF trace re-serializes identically to its LF twin.
  std::ostringstream os2;
  write_csv(os2, loaded, 9);
  std::istringstream lf(os.str());
  std::ostringstream os3;
  write_csv(os3, read_csv(lf), 9);
  EXPECT_EQ(os2.str(), os3.str());
}

TEST(TraceIo, ToleratesTrailingBlankLine) {
  const std::string base =
      "# pmiot-trace v1\n"
      "# start=2017-06-01 start_minute=0 interval_seconds=60\n"
      "2017-06-01T00:00,1.0\n"
      "2017-06-01T00:01,2.0\n";
  for (const char* tail : {"\n", "\r\n", ""}) {
    std::istringstream is(base + tail);
    const auto loaded = read_csv(is);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded[0], 1.0);
    EXPECT_DOUBLE_EQ(loaded[1], 2.0);
  }
}

TEST(TraceIo, CrlfDoesNotMaskCorruption) {
  // Only one trailing \r is forgiven; an interior \r is still junk.
  std::istringstream is(
      "# pmiot-trace v1\r\n"
      "# start=2017-06-01 start_minute=0 interval_seconds=60\r\n"
      "2017-06-01T00:00,1.0\r\r\n");
  EXPECT_THROW(read_csv(is), pmiot::InvalidArgument);
}

TEST(TraceIo, RejectsCorruptedInput) {
  {
    std::istringstream is("not a trace\n");
    EXPECT_THROW(read_csv(is), pmiot::InvalidArgument);
  }
  {
    std::istringstream is(
        "# pmiot-trace v1\n"
        "# start=2017-06-01 start_minute=0 interval_seconds=60\n"
        "2017-06-01T00:05,1.0\n");  // timestamp off the declared grid
    EXPECT_THROW(read_csv(is), pmiot::InvalidArgument);
  }
  {
    std::istringstream is(
        "# pmiot-trace v1\n"
        "# start=2017-06-01 start_minute=0 interval_seconds=60\n"
        "2017-06-01T00:00,banana\n");
    EXPECT_THROW(read_csv(is), pmiot::InvalidArgument);
  }
}

// --- binary columnar container ---

TEST(TraceIo, BinaryRoundTripsBitExact) {
  Rng rng(11);
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 30, 300},
               std::vector<double>{});
  for (int i = 0; i < 257; ++i) s.push_back(rng.uniform(-5.0, 8.0));
  std::ostringstream os(std::ios::binary);
  write_binary(os, s);
  std::istringstream is(os.str(), std::ios::binary);
  const auto loaded = read_binary(is);
  EXPECT_EQ(loaded.meta(), s.meta());
  ASSERT_EQ(loaded.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[i]),
              std::bit_cast<std::uint64_t>(s[i]));
  }
}

TEST(TraceIo, BinaryEmptySeries) {
  const TimeSeries s(TraceMeta{CivilDate{2020, 2, 29}, 15, 30},
                     std::vector<double>{});
  std::ostringstream os(std::ios::binary);
  write_binary(os, s);
  std::istringstream is(os.str(), std::ios::binary);
  const auto loaded = read_binary(is);
  EXPECT_EQ(loaded.meta(), s.meta());
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(TraceIo, BinarySingleSample) {
  const TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60}, {42.5});
  std::ostringstream os(std::ios::binary);
  write_binary(os, s);
  std::istringstream is(os.str(), std::ios::binary);
  const auto loaded = read_binary(is);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0], 42.5);
}

TEST(TraceIo, BinaryCarriesNonFiniteValues) {
  // The CSV format cannot represent these; the binary container stores the
  // raw bit patterns, so NaN payloads, infinities, and -0.0 all survive.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60},
                     {nan, inf, -inf, -0.0, 1.0});
  std::ostringstream os(std::ios::binary);
  write_binary(os, s);
  std::istringstream is(os.str(), std::ios::binary);
  const auto loaded = read_binary(is);
  ASSERT_EQ(loaded.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[i]),
              std::bit_cast<std::uint64_t>(s[i]))
        << "sample " << i;
  }
}

TEST(TraceIo, BinaryRejectsCorruption) {
  const TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60}, {1.0, 2.0});
  std::ostringstream os(std::ios::binary);
  write_binary(os, s);
  const std::string good = os.str();
  {
    std::istringstream is(std::string("XXXXXXXX") + good.substr(8),
                          std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);  // wrong magic
  }
  {
    std::string bumped = good;
    bumped[8] = 9;  // unsupported version
    std::istringstream is(bumped, std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);
  }
  {
    std::istringstream is(good.substr(0, 10), std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);  // cut header
  }
  {
    std::istringstream is(good.substr(0, 80), std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);  // cut directory
  }
  {
    std::istringstream is(good.substr(0, good.size() - 8), std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);  // cut column
  }
  {
    std::istringstream is(std::string(), std::ios::binary);
    EXPECT_THROW(read_binary(is), pmiot::InvalidArgument);  // empty file
  }
}

TEST(TraceIo, CsvBinaryCsvRoundTripIsExact) {
  // CSV -> binary -> CSV must reproduce the CSV serialization byte for
  // byte: the binary side stores the parsed doubles bit-exactly. The CRLF
  // variant exercises the same path through the Windows-style reader.
  const std::string base =
      "# pmiot-trace v1\n"
      "# start=2017-06-01 start_minute=30 interval_seconds=300\n"
      "2017-06-01T00:30,0.412345678\n"
      "2017-06-01T00:35,7.125\n"
      "2017-06-01T00:40,-3.000000001\n";
  std::string crlf;
  for (char c : base) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  for (const std::string& text : {base, crlf}) {
    std::istringstream csv_in(text);
    const auto from_csv = read_csv(csv_in);
    std::ostringstream bin(std::ios::binary);
    write_binary(bin, from_csv);
    std::istringstream bin_in(bin.str(), std::ios::binary);
    const auto from_binary = read_binary(bin_in);
    EXPECT_EQ(from_binary, from_csv);
    std::ostringstream csv_a, csv_b;
    write_csv(csv_a, from_csv, 9);
    write_csv(csv_b, from_binary, 9);
    EXPECT_EQ(csv_a.str(), csv_b.str());
  }
}

TEST(TraceIo, BinaryFileRoundTripIsBitExact) {
  Rng rng(13);
  TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60},
               std::vector<double>{});
  for (int i = 0; i < 1000; ++i) s.push_back(rng.uniform(0.0, 3.0));
  const std::string path = testing::TempDir() + "pmiot_trace_file.bin";
  save_binary(path, s);

  const auto loaded = load_binary(path);
  EXPECT_EQ(loaded.meta(), s.meta());
  ASSERT_EQ(loaded.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(loaded[i]),
              std::bit_cast<std::uint64_t>(s[i]));
  }
  EXPECT_THROW(load_binary(testing::TempDir() + "no_such_trace.bin"),
               InvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadTraceSniffsFormat) {
  const TimeSeries s(TraceMeta{CivilDate{2017, 6, 1}, 0, 60},
                     {1.0, 2.5, 3.25});
  const std::string bin_path = testing::TempDir() + "pmiot_sniff.bin";
  const std::string csv_path = testing::TempDir() + "pmiot_sniff.csv";
  save_binary(bin_path, s);
  save_csv(csv_path, s);
  EXPECT_EQ(load_trace(bin_path), s);
  EXPECT_EQ(load_trace(csv_path), s);
  std::remove(bin_path.c_str());
  std::remove(csv_path.c_str());
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
