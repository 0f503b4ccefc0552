// Unit tests for pmiot_common: RNG, statistics, civil time, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "common/civil_time.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace pmiot {
namespace {

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    saw_lo |= v == 2;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LaplaceSymmetricWithScale) {
  Rng rng(17);
  double sum = 0.0, abs_sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.laplace(2.0);
    sum += x;
    abs_sum += std::fabs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.08);
  EXPECT_NEAR(abs_sum / n, 2.0, 0.08);  // E|X| = b
}

TEST(Rng, PoissonMeanMatchesLambda) {
  Rng rng(19);
  double small = 0.0, large = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    small += rng.poisson(3.0);
    large += rng.poisson(50.0);
  }
  EXPECT_NEAR(small / n, 3.0, 0.1);
  EXPECT_NEAR(large / n, 50.0, 0.5);
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(19);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> counts(3, 0.0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.categorical({1.0, 2.0, 7.0})];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), InvalidArgument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), InvalidArgument);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng b(31);
  b.next();  // parent consumed one draw to fork
  EXPECT_NE(child.next(), b.next());
}

// --- stats ------------------------------------------------------------------

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), std::sqrt(1.25));
  EXPECT_NEAR(stats::sample_variance(xs), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyRangesThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), InvalidArgument);
  EXPECT_THROW(stats::variance(empty), InvalidArgument);
  EXPECT_THROW(stats::min(empty), InvalidArgument);
  EXPECT_THROW(stats::median(empty), InvalidArgument);
}

TEST(Stats, SumOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(stats::sum(std::vector<double>{}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Stats, QuantileEndpointsAndMiddle) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.25), 20.0);
}

TEST(Stats, QuantileInPlaceMatchesSortingQuantileBitwise) {
  Rng rng(7);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (int trial = 0; trial < 600; ++trial) {
    // Short ranges go straight to the insertion sort; longer ones are
    // partitioned first.
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, trial % 2 == 0 ? 24 : 400));
    std::vector<double> xs(n);
    // Few distinct values, so most trials hold ties; every 50th is all
    // equal, and some are sorted or reversed.
    const std::int64_t distinct =
        trial % 50 == 0 ? 0 : (trial % 3 == 0 ? 6 : 1000);
    for (auto& x : xs) {
      x = 0.125 * static_cast<double>(rng.uniform_int(0, distinct));
    }
    if (trial % 7 == 0) std::sort(xs.begin(), xs.end());
    if (trial % 7 == 1) std::sort(xs.rbegin(), xs.rend());
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      auto scratch = xs;
      EXPECT_EQ(bits(stats::quantile_in_place(scratch, q)),
                bits(stats::quantile(xs, q)))
          << "trial " << trial << " q " << q;
    }
  }
  std::vector<double> empty;
  EXPECT_THROW(stats::quantile_in_place(empty, 0.5), InvalidArgument);
  std::vector<double> one{1.0};
  EXPECT_THROW(stats::quantile_in_place(one, 1.5), InvalidArgument);
}

TEST(Stats, QuantileRejectsBadQ) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(stats::quantile(xs, -0.1), InvalidArgument);
  EXPECT_THROW(stats::quantile(xs, 1.1), InvalidArgument);
}

TEST(Stats, PearsonPerfectAndInverse) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(stats::pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> c{5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::pearson(xs, c), 0.0);
}

TEST(Stats, RmseAndMae) {
  const std::vector<double> a{0, 0, 0};
  const std::vector<double> b{3, 4, 0};
  EXPECT_NEAR(stats::rmse(a, b), 5.0 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(stats::mae(a, b), 7.0 / 3.0, 1e-12);
}

TEST(Stats, ConfusionAndDerivedMetrics) {
  const std::vector<int> pred{1, 1, 0, 0, 1};
  const std::vector<int> actual{1, 0, 0, 1, 1};
  const auto c = stats::confusion(pred, actual);
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.6);
  EXPECT_NEAR(c.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.recall(), 2.0 / 3.0, 1e-12);
}

TEST(Stats, MccPerfectAndInverted) {
  stats::BinaryConfusion perfect{5, 5, 0, 0};
  EXPECT_DOUBLE_EQ(perfect.mcc(), 1.0);
  stats::BinaryConfusion inverted{0, 0, 5, 5};
  EXPECT_DOUBLE_EQ(inverted.mcc(), -1.0);
}

TEST(Stats, MccDegenerateIsZero) {
  stats::BinaryConfusion all_positive{10, 0, 0, 0};
  EXPECT_DOUBLE_EQ(all_positive.mcc(), 0.0);
}

TEST(Stats, AccumulatorMatchesBatch) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.5};
  stats::Accumulator acc;
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(acc.variance(), stats::variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.5);
}

TEST(Stats, AccumulatorEmptyThrows) {
  stats::Accumulator acc;
  EXPECT_THROW(acc.mean(), InvalidArgument);
}

// --- civil time --------------------------------------------------------------

TEST(CivilTime, LeapYears) {
  EXPECT_TRUE(is_leap_year(2016));
  EXPECT_TRUE(is_leap_year(2000));
  EXPECT_FALSE(is_leap_year(1900));
  EXPECT_FALSE(is_leap_year(2017));
}

TEST(CivilTime, DaysInMonth) {
  EXPECT_EQ(days_in_month(2017, 2), 28);
  EXPECT_EQ(days_in_month(2016, 2), 29);
  EXPECT_EQ(days_in_month(2017, 12), 31);
  EXPECT_THROW(days_in_month(2017, 13), InvalidArgument);
}

TEST(CivilTime, Validity) {
  EXPECT_TRUE(is_valid(CivilDate{2017, 6, 30}));
  EXPECT_FALSE(is_valid(CivilDate{2017, 6, 31}));
  EXPECT_FALSE(is_valid(CivilDate{2017, 0, 1}));
  EXPECT_FALSE(is_valid(CivilDate{2017, 2, 29}));
  EXPECT_TRUE(is_valid(CivilDate{2016, 2, 29}));
}

TEST(CivilTime, DayOfYear) {
  EXPECT_EQ(day_of_year(CivilDate{2017, 1, 1}), 1);
  EXPECT_EQ(day_of_year(CivilDate{2017, 12, 31}), 365);
  EXPECT_EQ(day_of_year(CivilDate{2016, 12, 31}), 366);
  EXPECT_EQ(day_of_year(CivilDate{2017, 3, 1}), 60);
}

TEST(CivilTime, EpochRoundTrip) {
  EXPECT_EQ(days_from_epoch(CivilDate{1970, 1, 1}), 0);
  EXPECT_EQ(days_from_epoch(CivilDate{1970, 1, 2}), 1);
  for (long d : {-1000L, 0L, 1L, 17000L, 20000L}) {
    EXPECT_EQ(days_from_epoch(date_from_epoch_days(d)), d);
  }
}

TEST(CivilTime, DayOfWeekKnownDates) {
  EXPECT_EQ(day_of_week(CivilDate{1970, 1, 1}), 4);   // Thursday
  EXPECT_EQ(day_of_week(CivilDate{2017, 6, 5}), 1);   // Monday
  EXPECT_EQ(day_of_week(CivilDate{2018, 1, 1}), 1);   // Monday
  EXPECT_TRUE(is_weekend(CivilDate{2017, 6, 4}));     // Sunday
  EXPECT_FALSE(is_weekend(CivilDate{2017, 6, 5}));
}

TEST(CivilTime, AddDaysAcrossBoundaries) {
  EXPECT_EQ(add_days(CivilDate{2017, 12, 31}, 1), (CivilDate{2018, 1, 1}));
  EXPECT_EQ(add_days(CivilDate{2016, 2, 28}, 1), (CivilDate{2016, 2, 29}));
  EXPECT_EQ(add_days(CivilDate{2017, 1, 1}, -1), (CivilDate{2016, 12, 31}));
}

TEST(CivilTime, Formatting) {
  EXPECT_EQ(to_string(CivilDate{2017, 6, 5}), "2017-06-05");
  EXPECT_EQ(minute_to_hhmm(0), "00:00");
  EXPECT_EQ(minute_to_hhmm(605), "10:05");
  EXPECT_EQ(minute_to_hhmm(1439), "23:59");
  EXPECT_THROW(minute_to_hhmm(1440), InvalidArgument);
}

// --- Table ------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row().cell("alpha").cell(1.5, 1);
  t.add_row().cell("b").cell(22LL);
  std::ostringstream os;
  t.print(os, "demo");
  const auto text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row().cell("plain").cell("with,comma");
  t.add_row().cell("quote\"inside").cell("x");
  std::ostringstream os;
  t.write_csv(os);
  const auto text = os.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, IncompleteRowRejected) {
  Table t({"a", "b"});
  t.add_row().cell("only one");
  std::ostringstream os;
  EXPECT_THROW(t.print(os), InvalidArgument);
}

TEST(Table, OverfullRowRejected) {
  Table t({"a"});
  t.add_row().cell("x");
  EXPECT_THROW(t.cell("y"), InvalidArgument);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

// --- property-style sweeps ----------------------------------------------------

class QuantileOrder : public ::testing::TestWithParam<int> {};

TEST_P(QuantileOrder, QuantilesAreMonotoneInQ) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0, 5));
  double prev = stats::quantile(xs, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = stats::quantile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileOrder, ::testing::Range(1, 9));

class UniformIntRange
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(UniformIntRange, StaysInBounds) {
  auto [lo, hi] = GetParam();
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UniformIntRange,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 1},
                      std::pair<std::int64_t, std::int64_t>{-5, 5},
                      std::pair<std::int64_t, std::int64_t>{100, 1000},
                      std::pair<std::int64_t, std::int64_t>{-1000000, -999990},
                      std::pair<std::int64_t, std::int64_t>{0, 0}));

// --- parallel ---------------------------------------------------------------

TEST(Parallel, ForRunsEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyAndSingletonRanges) {
  par::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, DeterministicAcrossThreadCounts) {
  // Shard i's result depends only on shard_seed(base, i), so a serial pool
  // and a wide pool must produce bitwise-identical outputs.
  auto run = [](std::size_t threads) {
    par::ThreadPool pool(threads);
    std::vector<double> out(64, 0.0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      Rng rng(par::shard_seed(42, i));
      double s = 0.0;
      for (int k = 0; k < 100; ++k) s += rng.normal();
      out[i] = s;
    });
    return out;
  };
  const auto serial = run(1);
  const auto wide = run(8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], wide[i]) << i;
  }
}

TEST(Parallel, NestedForRunsInline) {
  par::ThreadPool pool(4);
  std::vector<int> out(16, 0);
  pool.parallel_for(0, 4, [&](std::size_t i) {
    // Nesting is the behaviour under test. pmiot-lint: allow(nested-par)
    pool.parallel_for(0, 4, [&](std::size_t j) {
      out[i * 4 + j] = static_cast<int>(i * 4 + j);
    });
  });
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(Parallel, RethrowsFirstException) {
  par::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 57) {
                                     throw InvalidArgument("boom");
                                   }
                                 }),
               InvalidArgument);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(Parallel, ShardSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t shard = 0; shard < 100; ++shard) {
      seen.insert(par::shard_seed(base, shard));
      EXPECT_EQ(par::shard_seed(base, shard), par::shard_seed(base, shard));
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(Parallel, ThreadCountIsPositive) {
  EXPECT_GE(par::thread_count(), 1u);
  EXPECT_EQ(par::ThreadPool(3).size(), 3u);
  EXPECT_EQ(par::ThreadPool(1).size(), 1u);
}

}  // namespace
}  // namespace pmiot
