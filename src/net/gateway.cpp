#include "net/gateway.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/table.h"
#include "net/features.h"
#include "net/window_accumulator.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace pmiot::net {

namespace {

obs::Counter& windows_scored_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.gateway.windows_scored");
  return c;
}

obs::Counter& packets_policed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.gateway.packets_policed");
  return c;
}

obs::Counter& quarantines_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.gateway.quarantines");
  return c;
}

obs::Timer& extract_rows_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("net.extract_rows");
  return t;
}

obs::Timer& policy_counts_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("net.policy_counts");
  return t;
}

/// The quarantine remediation carve-out: UDP DNS only. TCP to port 53
/// (zone transfers, DNS tunnels) is dropped like everything else.
bool quarantine_exempt(const Packet& p) {
  return p.protocol == Protocol::kUdp && p.dst_port == 53;
}

}  // namespace

const char* to_string(Zone zone) {
  switch (zone) {
    case Zone::kIot: return "iot";
    case Zone::kQuarantined: return "quarantined";
  }
  return "unknown";
}

SmartGateway::SmartGateway(const ml::Classifier& classifier,
                           const AnomalyDetector& detector,
                           GatewayOptions options)
    : classifier_(classifier), detector_(detector), options_(options) {
  PMIOT_CHECK(options_.window_s > 0.0, "window must be positive");
  PMIOT_CHECK(options_.windows_to_quarantine >= 1,
              "quarantine debounce must be at least 1 window");
  check_feature_layout();
}

void SmartGateway::register_device(std::uint32_t ip, std::string name) {
  PMIOT_CHECK(is_lan(ip), "devices must be on the LAN");
  PMIOT_CHECK(ip != options_.router_ip, "the router is not a policed device");
  devices_[ip] = std::move(name);
}

int SmartGateway::window_count(double duration_s) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  const auto n = full_window_count(duration_s, options_.window_s);
  PMIOT_CHECK(n <= static_cast<std::size_t>(std::numeric_limits<int>::max()),
              "too many windows");
  return static_cast<int>(n);
}

DeviceSlots SmartGateway::device_slots() const {
  DeviceSlots slots;
  for (const auto& entry : devices_) slots.add(entry.first);
  return slots;
}

std::vector<DeviceRows> SmartGateway::extract_rows(
    std::span<const Packet> packets, double duration_s) const {
  obs::ScopedTimer span(extract_rows_timer());
  const int windows = window_count(duration_s);
  std::vector<DeviceRows> out;
  out.reserve(devices_.size());
  for (const auto& [ip, name] : devices_) out.push_back({ip, name, {}});
  // A capture shorter than one window has no rows to extract; routine
  // under fleet churn, not an error.
  if (windows == 0 || out.empty()) return out;

  // One pass routes each packet to its devices' accumulators.
  std::vector<WindowAccumulator> accumulators;
  accumulators.reserve(out.size());
  for (const auto& device : out) {
    accumulators.emplace_back(device.ip, options_.window_s,
                              /*keep_idle_windows=*/false, options_.router_ip);
  }
  route_packets(packets, device_slots(), accumulators);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].rows = accumulators[i].finish(duration_s);
  }
  return out;
}

PolicyTally::PolicyTally(const GatewayOptions& options,
                         const DeviceSlots& slots, std::size_t windows,
                         std::span<PolicyCounts> out)
    : options_(options), slots_(slots), windows_(windows), out_(out) {
  for (auto& pc : out_) {
    pc.policed = 0;
    pc.lateral_total = 0;
    pc.nonexempt_from.assign(windows_ + 1, 0);
    pc.lateral_nonexempt_from.assign(windows_ + 1, 0);
  }
}

void PolicyTally::count(int src, const Packet& p, std::size_t k) {
  auto& pc = out_[static_cast<std::size_t>(src)];
  ++pc.policed;
  const bool lateral = is_lan(p.dst_ip) && p.dst_ip != options_.router_ip &&
                       slots_[p.dst_ip] < 0;
  if (lateral) ++pc.lateral_total;
  if (quarantine_exempt(p)) return;
  ++pc.nonexempt_from[k];
  if (lateral) ++pc.lateral_nonexempt_from[k];
}

void PolicyTally::add_run(std::span<const Packet> run) {
  // k is the largest boundary index in [0, windows] with timestamp >=
  // k * window_s, using the same `int * double` boundary arithmetic as the
  // replay's quarantine timestamps so the bucket test is exact. It only
  // grows along a time-ordered run, and a timestamp <= 0 stays at k = 0.
  std::size_t k = 0;
  double last_timestamp = -std::numeric_limits<double>::infinity();
  for (const auto& p : run) {
    PMIOT_CHECK(p.timestamp_s >= last_timestamp,
                "packets must arrive in timestamp order (use sort_by_time)");
    last_timestamp = p.timestamp_s;
    const int src = slots_[p.src_ip];
    if (src < 0) continue;
    while (k < windows_ &&
           p.timestamp_s >= static_cast<double>(k + 1) * options_.window_s) {
      ++k;
    }
    count(src, p, k);
  }
}

void PolicyTally::finish() {
  // Bucket counts -> suffix sums: [k] covers every packet at or after the
  // boundary k * window_s.
  for (auto& pc : out_) {
    packets_policed_counter().add(pc.policed);
    for (std::size_t k = windows_; k-- > 0;) {
      pc.nonexempt_from[k] += pc.nonexempt_from[k + 1];
      pc.lateral_nonexempt_from[k] += pc.lateral_nonexempt_from[k + 1];
    }
  }
}

std::vector<PolicyCounts> SmartGateway::policy_counts(
    std::span<const Packet> packets, double duration_s) const {
  obs::ScopedTimer span(policy_counts_timer());
  const auto windows = static_cast<std::size_t>(window_count(duration_s));
  std::vector<PolicyCounts> out(devices_.size());
  const auto slots = device_slots();
  PolicyTally tally(options_, slots, windows, out);
  tally.add_run(packets);
  tally.finish();
  return out;
}

GatewayReport SmartGateway::replay(
    std::span<const DeviceRows> devices,
    std::span<const std::vector<int>> predictions,
    std::span<const PolicyCounts> counts, double duration_s) const {
  PMIOT_CHECK(devices.size() == predictions.size() &&
                  devices.size() == counts.size(),
              "devices/predictions/counts must align");
  const int windows = window_count(duration_s);

  struct State {
    int consecutive_anomalous = 0;
    Zone zone = Zone::kIot;
    double quarantined_at = -1.0;
    int quarantined_window = -1;  ///< boundary index: quarantined_at / window_s
    double max_score = 0.0;
    std::vector<int> type_votes;
  };
  std::vector<State> state(devices.size());
  std::vector<std::size_t> cursor(devices.size(), 0);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    PMIOT_CHECK(predictions[i].size() == devices[i].rows.size(),
                "one prediction per window row required");
  }

  GatewayReport report;
  for (int w = 0; w < windows; ++w) {
    const double t1 = (w + 1) * options_.window_s;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      auto& st = state[i];
      const auto& rows = devices[i].rows;
      auto& next = cursor[i];
      while (next < rows.size() &&
             rows[next].window_index < static_cast<std::size_t>(w)) {
        ++next;
      }
      if (next >= rows.size() ||
          rows[next].window_index != static_cast<std::size_t>(w)) {
        continue;  // silent window
      }
      const auto& features = rows[next].features;

      const int predicted = predictions[i][next];
      st.type_votes.push_back(predicted);
      // Evidence gate: a near-silent window cannot be judged (or do harm).
      const double window_packets =
          (features[kFeaturePktRateUp] + features[kFeaturePktRateDown]) *
          options_.window_s;
      if (window_packets < options_.min_packets_to_score) continue;
      const double score = detector_.score(features, predicted);
      windows_scored_counter().add();
      st.max_score = std::max(st.max_score, score);

      if (st.zone == Zone::kQuarantined) continue;
      if (score > options_.anomaly_threshold) {
        ++st.consecutive_anomalous;
        report.events.push_back(GatewayEvent{
            t1, devices[i].name,
            "anomalous window (score " + format_double(score, 1) +
                ", looks like " +
                std::string(to_string(static_cast<DeviceType>(predicted))) +
                ")"});
        if (st.consecutive_anomalous >= options_.windows_to_quarantine) {
          st.zone = Zone::kQuarantined;
          st.quarantined_at = t1;
          st.quarantined_window = w + 1;
          quarantines_counter().add();
          report.events.push_back(GatewayEvent{
              t1, devices[i].name, "QUARANTINED: repeated anomalies"});
        }
      } else {
        st.consecutive_anomalous = 0;
      }
    }
  }

  for (std::size_t i = 0; i < devices.size(); ++i) {
    const auto& st = state[i];
    const auto& pc = counts[i];

    // Policy accounting from the precomputed summaries. Quarantine drop
    // first (everything at or after the quarantine boundary except UDP
    // DNS), lateral blocking on what the quarantine stage let through —
    // the counters are mutually exclusive by construction.
    if (st.zone == Zone::kQuarantined) {
      const auto k = static_cast<std::size_t>(st.quarantined_window);
      report.quarantine_packets_dropped += pc.nonexempt_from[k];
      report.lateral_packets_blocked +=
          pc.lateral_total - pc.lateral_nonexempt_from[k];
    } else {
      report.lateral_packets_blocked += pc.lateral_total;
    }

    DeviceVerdict verdict;
    verdict.device = devices[i].name;
    verdict.final_zone = st.zone;
    verdict.quarantined_at_s = st.quarantined_at;
    verdict.max_anomaly_score = st.max_score;
    if (!st.type_votes.empty()) {
      std::vector<int> votes(kNumDeviceTypes, 0);
      for (int v : st.type_votes) {
        if (v >= 0 && v < kNumDeviceTypes) ++votes[static_cast<std::size_t>(v)];
      }
      verdict.predicted_type = static_cast<int>(
          std::max_element(votes.begin(), votes.end()) - votes.begin());
    }
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

GatewayReport SmartGateway::process(std::span<const Packet> packets,
                                    double duration_s) const {
  const auto rows = extract_rows(packets, duration_s);
  std::vector<std::vector<int>> predictions(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    predictions[i].reserve(rows[i].rows.size());
    for (const auto& row : rows[i].rows) {
      predictions[i].push_back(classifier_.predict(row.features));
    }
  }
  const auto counts = policy_counts(packets, duration_s);
  return replay(rows, predictions, counts, duration_s);
}

}  // namespace pmiot::net
