// Scoring NIOM attacks against ground-truth occupancy.
//
// The paper reports NIOM performance as detection accuracy (§II-A:
// "70-90% for a range of homes") and as MCC when measuring defenses
// (Figure 6: 0.44 raw vs 0.045 under CHPr). Both come from the same
// confusion matrix computed here.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "niom/detector.h"

namespace pmiot::niom {

/// One detector-vs-home evaluation.
struct NiomReport {
  std::string detector;
  stats::BinaryConfusion confusion;
  double accuracy = 0.0;
  double mcc = 0.0;
  double precision = 0.0;
  double recall = 0.0;
};

/// Runs `detector` on `power` and scores it against per-minute ground truth
/// `occupancy_minutes` (downsampled to the trace resolution by majority),
/// counting only samples whose minute-of-day falls in the scoring window
/// (`EvaluateOptions`, detector.h), which is also passed to the detector.
/// Requires the occupancy horizon to cover the power trace and a valid
/// window (check_scoring_window; score_predictions checks it).
NiomReport evaluate(const OccupancyDetector& detector,
                    const ts::TimeSeries& power,
                    const std::vector<int>& occupancy_minutes,
                    const EvaluateOptions& options = {});

/// One detector-vs-trace request for `evaluate_many`. All pointers are
/// borrowed and must stay valid for the duration of the call.
struct EvaluationJob {
  const OccupancyDetector* detector = nullptr;
  const ts::TimeSeries* power = nullptr;
  const std::vector<int>* occupancy_minutes = nullptr;
  EvaluateOptions options;
};

/// Evaluates every job, fanning the independent (detector, home) pairs out
/// across the shared thread pool (sized by `PMIOT_THREADS`, see
/// common/parallel.h). Reports are returned in job order and are identical
/// at any thread count; detectors must be safe to call concurrently
/// (`detect` is const and the built-in detectors carry no mutable state).
std::vector<NiomReport> evaluate_many(std::span<const EvaluationJob> jobs);

/// Scores an externally produced per-sample prediction the same way.
NiomReport score_predictions(const std::string& name,
                             const std::vector<int>& predicted,
                             const ts::TimeSeries& power,
                             const std::vector<int>& occupancy_minutes,
                             const EvaluateOptions& options = {});

/// Aligns per-minute ground truth to a trace's sampling grid (majority per
/// sample period). Exposed for defenses that need aligned labels.
std::vector<int> align_occupancy(const ts::TimeSeries& power,
                                 const std::vector<int>& occupancy_minutes);

}  // namespace pmiot::niom
