#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace pmiot::stats {

double mean(std::span<const double> xs) {
  PMIOT_CHECK(!xs.empty(), "mean of empty range");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  PMIOT_CHECK(!xs.empty(), "variance of empty range");
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  PMIOT_CHECK(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  PMIOT_CHECK(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

namespace {

/// Where quantile q of n values lies in their sorted order: it
/// interpolates order statistics `lo` and `hi` by `frac`.
struct QuantilePosition {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

QuantilePosition quantile_position(std::size_t n, double q) {
  PMIOT_CHECK(n > 0, "quantile of empty range");
  PMIOT_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

/// std::nth_element's contract over [first, last): the element that sorts
/// to `nth` lands there, nothing before it is greater and nothing after it
/// is smaller. Quickselect with a median-of-three pivot and branch-free
/// partitions: a pass moves the elements below the pivot to the front by
/// swapping unconditionally and advancing by the comparison, so it costs
/// no mispredicted branches. A second pass, run only when `nth` is not
/// below the pivot, gathers the elements equal to it, so ties cannot stall
/// the loop. After 64 rounds it hands over to std::nth_element.
void select_nth(double* first, double* nth, double* last) {
  for (int rounds = 64; last - first > 24; --rounds) {
    if (rounds == 0) {
      std::nth_element(first, nth, last);
      return;
    }
    const double a = *first, b = first[(last - first) / 2], c = *(last - 1);
    const double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    double* below = first;  // [first, below) < pivot
    for (double* it = first; it != last; ++it) {
      const double v = *it;
      *it = *below;
      *below = v;
      below += v < pivot;
    }
    if (nth < below) {
      last = below;
      continue;
    }
    double* equal = below;  // [below, equal) == pivot
    for (double* it = below; it != last; ++it) {
      const double v = *it;
      *it = *equal;
      *equal = v;
      equal += !(pivot < v);
    }
    if (nth < equal) return;
    first = equal;
  }
  // Insertion sort of the short rest.
  for (double* i = first; i != last; ++i) {
    const double v = *i;
    double* j = i;
    for (; j != first && v < *(j - 1); --j) *j = *(j - 1);
    *j = v;
  }
}

}  // namespace

double quantile(std::span<const double> xs, double q) {
  const auto at = quantile_position(xs.size(), q);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  return sorted[at.lo] * (1.0 - at.frac) + sorted[at.hi] * at.frac;
}

double quantile_in_place(std::span<double> xs, double q) {
  const auto at = quantile_position(xs.size(), q);
  if (xs.size() == 1) return xs[0];
  // Order statistic lo in place; everything after it is no smaller, so
  // order statistic hi = lo + 1 is the minimum of that upper part.
  double* const lo = xs.data() + at.lo;
  select_nth(xs.data(), lo, xs.data() + xs.size());
  const double hi =
      at.hi == at.lo ? *lo : *std::min_element(lo + 1, xs.data() + xs.size());
  return *lo * (1.0 - at.frac) + hi * at.frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  PMIOT_CHECK(xs.size() == ys.size(), "pearson needs equal sizes");
  PMIOT_CHECK(!xs.empty(), "pearson of empty range");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double rmse(std::span<const double> xs, std::span<const double> ys) {
  PMIOT_CHECK(xs.size() == ys.size(), "rmse needs equal sizes");
  PMIOT_CHECK(!xs.empty(), "rmse of empty range");
  double s = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double d = xs[i] - ys[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double mae(std::span<const double> xs, std::span<const double> ys) {
  PMIOT_CHECK(xs.size() == ys.size(), "mae needs equal sizes");
  PMIOT_CHECK(!xs.empty(), "mae of empty range");
  double s = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) s += std::fabs(xs[i] - ys[i]);
  return s / static_cast<double>(xs.size());
}

double BinaryConfusion::accuracy() const {
  PMIOT_CHECK(total() > 0, "accuracy of empty confusion matrix");
  return static_cast<double>(tp + tn) / static_cast<double>(total());
}

double BinaryConfusion::precision() const noexcept {
  const auto denom = tp + fp;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double BinaryConfusion::recall() const noexcept {
  const auto denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double BinaryConfusion::f1() const noexcept {
  const double p = precision();
  const double r = recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double BinaryConfusion::mcc() const noexcept {
  const double dtp = static_cast<double>(tp);
  const double dtn = static_cast<double>(tn);
  const double dfp = static_cast<double>(fp);
  const double dfn = static_cast<double>(fn);
  const double denom = std::sqrt((dtp + dfp) * (dtp + dfn) * (dtn + dfp) *
                                 (dtn + dfn));
  if (denom == 0.0) return 0.0;
  return (dtp * dtn - dfp * dfn) / denom;
}

BinaryConfusion confusion(std::span<const int> predicted,
                          std::span<const int> actual) {
  PMIOT_CHECK(predicted.size() == actual.size(),
              "confusion needs equal sizes");
  PMIOT_CHECK(!predicted.empty(), "confusion of empty labels");
  BinaryConfusion c;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const bool p = predicted[i] != 0;
    const bool a = actual[i] != 0;
    if (p && a)
      ++c.tp;
    else if (!p && !a)
      ++c.tn;
    else if (p && !a)
      ++c.fp;
    else
      ++c.fn;
  }
  return c;
}

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
  PMIOT_CHECK(n_ > 0, "mean of empty accumulator");
  return mean_;
}

double Accumulator::variance() const {
  PMIOT_CHECK(n_ > 0, "variance of empty accumulator");
  return m2_ / static_cast<double>(n_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  PMIOT_CHECK(n_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  PMIOT_CHECK(n_ > 0, "max of empty accumulator");
  return max_;
}

}  // namespace pmiot::stats
