// Descriptive statistics and binary-classification metrics.
//
// The paper's evaluations are framed almost entirely in these terms: NIOM is
// scored by accuracy and the Matthews Correlation Coefficient (MCC, the
// paper's Figure 6 metric), NILM by a normalized error factor, and the solar
// attacks by geographic distance. This header provides the numeric
// foundations; higher-level metrics live with their modules.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pmiot::stats {

/// Arithmetic mean. Requires non-empty input.
double mean(std::span<const double> xs);

/// Population variance (divide by N). Requires non-empty input.
double variance(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// Sample variance (divide by N-1). Requires at least two values.
double sample_variance(std::span<const double> xs);

/// Minimum / maximum. Require non-empty input.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Sum of all values (0 for empty input).
double sum(std::span<const double> xs);

/// Median (interpolated for even lengths). Requires non-empty input.
double median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0,1]. Requires non-empty input.
double quantile(std::span<const double> xs, double q);

/// `quantile` without the copy and the sort: selects the two order
/// statistics it interpolates between (a branch-free quickselect, then the
/// minimum of the part above) and leaves `xs` reordered. Bitwise the same value as
/// `quantile` unless `xs` holds a NaN or zeros of both signs.
double quantile_in_place(std::span<double> xs, double q);

/// Pearson correlation coefficient. Returns 0 when either side is constant.
/// Requires equally sized, non-empty inputs.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Root-mean-square error between two equally sized, non-empty series.
double rmse(std::span<const double> xs, std::span<const double> ys);

/// Mean absolute error between two equally sized, non-empty series.
double mae(std::span<const double> xs, std::span<const double> ys);

/// Counts of a 2x2 confusion matrix for binary classification.
struct BinaryConfusion {
  std::size_t tp = 0;  ///< predicted 1, actual 1
  std::size_t tn = 0;  ///< predicted 0, actual 0
  std::size_t fp = 0;  ///< predicted 1, actual 0
  std::size_t fn = 0;  ///< predicted 0, actual 1

  std::size_t total() const noexcept { return tp + tn + fp + fn; }

  /// Fraction of correct predictions. Requires total() > 0.
  double accuracy() const;

  /// Precision tp/(tp+fp); 0 when no positive predictions.
  double precision() const noexcept;

  /// Recall tp/(tp+fn); 0 when no actual positives.
  double recall() const noexcept;

  /// F1 harmonic mean; 0 when precision+recall is 0.
  double f1() const noexcept;

  /// Matthews Correlation Coefficient in [-1, 1]; 0 when any marginal is
  /// empty (the conventional value for a degenerate confusion matrix).
  double mcc() const noexcept;
};

/// Tally a confusion matrix from parallel prediction/truth label vectors
/// (values are interpreted as boolean). Requires equal, non-zero sizes.
BinaryConfusion confusion(std::span<const int> predicted,
                          std::span<const int> actual);

/// Online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  /// Requires count() > 0.
  double mean() const;
  /// Population variance. Requires count() > 0.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pmiot::stats
