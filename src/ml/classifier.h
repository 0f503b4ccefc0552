// Common interface for the multiclass classifiers in pmiot::ml.
//
// The gateway fingerprinting evaluation (paper §IV) compares several models
// on the same flow features; a small virtual interface keeps that sweep
// table-driven. Concrete models are also usable directly as value types.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace pmiot::ml {

/// Abstract multiclass classifier over dense double features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Learns from a validated, non-empty dataset.
  virtual void fit(const Dataset& data) = 0;

  /// Predicts the class id of one row. Requires fit().
  virtual int predict(std::span<const double> row) const = 0;

  /// Human-readable model name for report tables.
  virtual std::string name() const = 0;

  /// Predictions for every row of `data`. The base implementation fans the
  /// rows out across `pmiot::par`'s shared pool; row i's result is written
  /// only to slot i, so the output is bitwise identical at any
  /// `PMIOT_THREADS`. Models with their own batch path override it (k-NN's
  /// blocked kernel; the random forest's tree-major block traversal);
  /// every override must return exactly what per-row `predict` would.
  virtual std::vector<int> predict_all(const Dataset& data) const;
};

}  // namespace pmiot::ml
