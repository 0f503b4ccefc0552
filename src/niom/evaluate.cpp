#include "niom/evaluate.h"

#include "common/error.h"
#include "common/parallel.h"
#include "synth/occupancy.h"

namespace pmiot::niom {

std::vector<int> align_occupancy(const ts::TimeSeries& power,
                                 const std::vector<int>& occupancy_minutes) {
  const int interval = power.meta().interval_seconds;
  PMIOT_CHECK(interval % 60 == 0,
              "sub-minute traces not supported for occupancy alignment");
  const int factor = interval / 60;
  auto aligned = factor == 1
                     ? occupancy_minutes
                     : synth::downsample_occupancy(occupancy_minutes, factor);
  PMIOT_CHECK(aligned.size() >= power.size(),
              "occupancy does not cover the power trace");
  aligned.resize(power.size());
  return aligned;
}

NiomReport score_predictions(const std::string& name,
                             const std::vector<int>& predicted,
                             const ts::TimeSeries& power,
                             const std::vector<int>& occupancy_minutes,
                             const EvaluateOptions& options) {
  PMIOT_CHECK(predicted.size() == power.size(),
              "prediction length mismatch");
  check_scoring_window(options);
  // At 1-minute resolution the occupancy is read in place.
  const bool minutes = power.meta().interval_seconds == 60;
  const auto coarse = minutes ? std::vector<int>{}
                              : align_occupancy(power, occupancy_minutes);
  const std::vector<int>& truth = minutes ? occupancy_minutes : coarse;
  PMIOT_CHECK(truth.size() >= power.size(),
              "occupancy does not cover the power trace");

  // One pass: the minute of day steps forward by the whole-minute sampling
  // interval, and each scored sample lands in its confusion cell.
  NiomReport report;
  report.detector = name;
  auto& c = report.confusion;
  const int step = power.meta().interval_seconds / 60 % kMinutesPerDay;
  int minute = power.meta().start_minute;
  for (std::size_t t = 0; t < predicted.size(); ++t) {
    if (minute >= options.score_start_minute &&
        minute < options.score_end_minute) {
      const bool p = predicted[t] != 0;
      const bool a = truth[t] != 0;
      ++(p ? (a ? c.tp : c.fp) : (a ? c.fn : c.tn));
    }
    minute += step;
    if (minute >= kMinutesPerDay) minute -= kMinutesPerDay;
  }
  PMIOT_CHECK(c.total() > 0, "no samples in scoring window");

  report.accuracy = report.confusion.accuracy();
  report.mcc = report.confusion.mcc();
  report.precision = report.confusion.precision();
  report.recall = report.confusion.recall();
  return report;
}

std::vector<NiomReport> evaluate_many(std::span<const EvaluationJob> jobs) {
  for (const auto& job : jobs) {
    PMIOT_CHECK(job.detector != nullptr && job.power != nullptr &&
                    job.occupancy_minutes != nullptr,
                "evaluation job missing detector or data");
  }
  std::vector<NiomReport> reports(jobs.size());
  par::parallel_for(0, jobs.size(), [&](std::size_t i) {
    const auto& job = jobs[i];
    reports[i] = evaluate(*job.detector, *job.power, *job.occupancy_minutes,
                          job.options);
  });
  return reports;
}

NiomReport evaluate(const OccupancyDetector& detector,
                    const ts::TimeSeries& power,
                    const std::vector<int>& occupancy_minutes,
                    const EvaluateOptions& options) {
  const auto predicted = detector.detect(power, options);
  PMIOT_ASSERT(predicted.size() == power.size(),
               "detector returned wrong length");
  return score_predictions(detector.name(), predicted, power,
                           occupancy_minutes, options);
}

}  // namespace pmiot::niom
