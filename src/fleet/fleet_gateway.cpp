#include "fleet/fleet_gateway.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace pmiot::fleet {

namespace {

obs::Counter& homes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("fleet.homes");
  return c;
}

obs::Counter& packets_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("fleet.packets");
  return c;
}

obs::Counter& quarantines_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("fleet.quarantines");
  return c;
}

obs::Timer& make_home_timer() {
  static obs::Timer& t =
      obs::MetricsRegistry::instance().timer("fleet.make_home");
  return t;
}

net::SmartGateway home_gateway(const ml::Classifier& classifier,
                               const net::AnomalyDetector& detector,
                               const FleetOptions& options,
                               const HomeCapture& home) {
  net::SmartGateway gateway(classifier, detector, options.gateway);
  for (const auto& device : home.devices) {
    gateway.register_device(device.profile.ip, device.profile.name);
  }
  return gateway;
}

/// Shared aggregation over per-home outcomes, in home order.
void accumulate_totals(FleetReport& report) {
  for (const auto& home : report.homes) {
    report.packets += home.packets;
    report.lateral_packets_blocked += home.report.lateral_packets_blocked;
    report.quarantine_packets_dropped +=
        home.report.quarantine_packets_dropped;
    for (const auto& verdict : home.report.verdicts) {
      if (verdict.final_zone == net::Zone::kQuarantined) {
        ++report.quarantined_devices;
      }
    }
  }
}

}  // namespace

net::GatewayOptions fleet_gateway_defaults() {
  net::GatewayOptions gateway;
  gateway.window_s = 120.0;
  return gateway;
}

// pmiot: no-alloc — the arena overloads exist so fleet passes can reuse
// capture buffers; no definite heap allocation may creep back in (vector
// growth on the warm arena is policed by the counting-operator-new tests).
void make_home_into(const FleetOptions& options, std::size_t home,
                    HomeCapture& out, HomeArena& arena) {
  PMIOT_CHECK(options.duration_s > 0.0, "duration must be positive");
  PMIOT_CHECK(options.min_devices >= 1 &&
                  options.max_devices >= options.min_devices,
              "device range must be non-empty");

  Rng rng(par::shard_seed(options.base_seed, home));
  out.devices.clear();
  out.packets.clear();
  out.infected = kNoInfectedDevice;
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(options.min_devices, options.max_devices));

  net::Infection infection = net::Infection::kNone;
  double infection_start_s = 0.0;
  if (rng.bernoulli(options.infected_fraction)) {
    out.infected = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    infection =
        static_cast<net::Infection>(1 + rng.uniform_int(0, 2));
    infection_start_s = rng.uniform(0.2, 0.5) * options.duration_s;
  }

  out.devices.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    const auto type = static_cast<net::DeviceType>(
        rng.uniform_int(0, net::kNumDeviceTypes - 1));
    DeviceLifecycle lifecycle;
    lifecycle.profile = net::make_device(type, static_cast<int>(d), rng);
    lifecycle.join_s = 0.0;
    lifecycle.leave_s = options.duration_s;
    if (d == out.infected) {
      // The compromised device keeps the full lifetime so the compromise
      // stays observable regardless of the churn draws.
      lifecycle.profile.infection = infection;
      lifecycle.profile.infection_start_s = infection_start_s;
    } else {
      if (rng.bernoulli(options.join_fraction)) {
        lifecycle.join_s = rng.uniform(0.0, 0.5 * options.duration_s);
      }
      if (rng.bernoulli(options.leave_fraction)) {
        lifecycle.leave_s =
            rng.uniform(0.5 * options.duration_s, options.duration_s);
      }
    }

    // Simulate straight into the shared capture: append raw, then filter
    // this device's suffix in place (`remove_if` keeps order).
    const std::size_t before = out.packets.size();
    net::simulate_device_append(lifecycle.profile, options.duration_s, rng,
                                out.packets);
    if (lifecycle.join_s > 0.0 || lifecycle.leave_s < options.duration_s) {
      const auto first =
          out.packets.begin() + static_cast<std::ptrdiff_t>(before);
      out.packets.erase(
          std::remove_if(first, out.packets.end(),
                         [&](const net::Packet& p) {
                           return p.timestamp_s < lifecycle.join_s ||
                                  p.timestamp_s >= lifecycle.leave_s;
                         }),
          out.packets.end());
    }
    out.devices.push_back(std::move(lifecycle));
  }
  // One stable sort of the filtered concatenation. Equal timestamps keep
  // device order, then each device's emission order — exactly what
  // stable-sorting every device's packets and then the merged capture
  // gives — and the lifecycle filter commutes with a stable sort.
  // The only allocation reachable from here is the one-time registration
  // of the net.sort.runs counter; warm calls allocate nothing, which
  // `bench/fleet_gateway --self-check` probes at run time.
  // pmiot-lint: allow(no-alloc)
  net::sort_by_time(out.packets, arena.sort);
}

HomeCapture make_home(const FleetOptions& options, std::size_t home) {
  HomeCapture out;
  HomeArena arena;
  make_home_into(options, home, out, arena);
  return out;
}

std::string describe_divergence(const FleetReport& a, const FleetReport& b) {
  std::ostringstream os;
  if (a.homes.size() != b.homes.size()) {
    os << "home count " << a.homes.size() << " vs " << b.homes.size();
    return os.str();
  }
  for (std::size_t h = 0; h < a.homes.size(); ++h) {
    const auto& x = a.homes[h];
    const auto& y = b.homes[h];
    os << "home " << h << ": ";
    if (x.devices != y.devices || x.packets != y.packets) {
      os << "world differs (" << x.devices << " devices/" << x.packets
         << " packets vs " << y.devices << "/" << y.packets << ")";
      return os.str();
    }
    const auto& ra = x.report;
    const auto& rb = y.report;
    if (ra.lateral_packets_blocked != rb.lateral_packets_blocked ||
        ra.quarantine_packets_dropped != rb.quarantine_packets_dropped) {
      os << "policy counters differ (" << ra.lateral_packets_blocked << "/"
         << ra.quarantine_packets_dropped << " vs "
         << rb.lateral_packets_blocked << "/"
         << rb.quarantine_packets_dropped << ")";
      return os.str();
    }
    if (ra.verdicts.size() != rb.verdicts.size()) {
      os << "verdict count " << ra.verdicts.size() << " vs "
         << rb.verdicts.size();
      return os.str();
    }
    for (std::size_t i = 0; i < ra.verdicts.size(); ++i) {
      const auto& va = ra.verdicts[i];
      const auto& vb = rb.verdicts[i];
      if (va.device != vb.device || va.predicted_type != vb.predicted_type ||
          va.final_zone != vb.final_zone ||
          va.quarantined_at_s != vb.quarantined_at_s ||
          va.max_anomaly_score != vb.max_anomaly_score) {
        os << "verdict " << i << " (" << va.device << ") differs";
        return os.str();
      }
    }
    if (ra.events.size() != rb.events.size()) {
      os << "event count " << ra.events.size() << " vs " << rb.events.size();
      return os.str();
    }
    for (std::size_t i = 0; i < ra.events.size(); ++i) {
      if (ra.events[i].timestamp_s != rb.events[i].timestamp_s ||
          ra.events[i].device != rb.events[i].device ||
          ra.events[i].message != rb.events[i].message) {
        os << "event " << i << " differs";
        return os.str();
      }
    }
    os.str("");  // home h matched; reset the prefix
  }
  if (a.packets != b.packets ||
      a.quarantined_devices != b.quarantined_devices ||
      a.lateral_packets_blocked != b.lateral_packets_blocked ||
      a.quarantine_packets_dropped != b.quarantine_packets_dropped) {
    return "aggregate totals differ";
  }
  return "";
}

FleetGateway::FleetGateway(const ml::Classifier& classifier,
                           const net::AnomalyDetector& detector,
                           FleetOptions options)
    : classifier_(classifier), detector_(detector), options_(options) {
  PMIOT_CHECK(options_.homes >= 1, "need at least one home");
  PMIOT_CHECK(detector_.fitted(), "detector must be fitted");
}

FleetReport FleetGateway::process_fleet() const {
  const std::size_t n = options_.homes;

  // Shard phase: per-home world generation + feature extraction + policy
  // summaries. Packets never leave the shard.
  struct HomeScratch {
    std::vector<net::DeviceRows> rows;
    std::vector<net::PolicyCounts> counts;
    std::uint64_t packets = 0;
    std::size_t devices = 0;
  };
  std::vector<HomeScratch> scratch(n);
  par::parallel_for(0, n, [&](std::size_t h) {
    // Per-pool-thread arenas: capture buffers and sort scratch persist
    // across the homes a thread processes, so steady-state generation
    // reuses warm capacity instead of reallocating per home.
    static thread_local HomeCapture home_buf;
    static thread_local HomeArena sort_arena;
    {
      obs::ScopedTimer span(make_home_timer());
      make_home_into(options_, h, home_buf, sort_arena);
    }
    const HomeCapture& home = home_buf;
    const auto gateway = home_gateway(classifier_, detector_, options_, home);
    auto& s = scratch[h];
    s.rows = gateway.extract_rows(home.packets, options_.duration_s);
    s.counts = gateway.policy_counts(home.packets, options_.duration_s);
    s.packets = home.packets.size();
    s.devices = home.devices.size();
    packets_counter().add(home.packets.size());
  });
  homes_counter().add(n);

  // Batch phase: one columnar classification across every home's windows
  // (row order: home asc, device asc, window asc — deterministic).
  ml::Dataset all;
  for (const auto& s : scratch) {
    for (const auto& device : s.rows) {
      for (const auto& row : device.rows) {
        all.append(row.features, 0);
      }
    }
  }
  std::vector<int> flat;
  if (all.size() > 0) flat = classifier_.predict_all(all);

  std::vector<std::vector<std::vector<int>>> predictions(n);
  std::size_t next = 0;
  for (std::size_t h = 0; h < n; ++h) {
    predictions[h].resize(scratch[h].rows.size());
    for (std::size_t d = 0; d < scratch[h].rows.size(); ++d) {
      const auto rows = scratch[h].rows[d].rows.size();
      predictions[h][d].assign(flat.begin() + static_cast<std::ptrdiff_t>(next),
                               flat.begin() +
                                   static_cast<std::ptrdiff_t>(next + rows));
      next += rows;
    }
  }
  PMIOT_ASSERT(next == flat.size(), "prediction scatter misaligned");

  // Replay phase: the quarantine state machine per home, slot-per-home.
  FleetReport report;
  report.homes.resize(n);
  par::parallel_for(0, n, [&](std::size_t h) {
    net::SmartGateway gateway(classifier_, detector_, options_.gateway);
    auto& out = report.homes[h];
    out.report = gateway.replay(scratch[h].rows, predictions[h],
                                scratch[h].counts, options_.duration_s);
    out.devices = scratch[h].devices;
    out.packets = scratch[h].packets;
  });

  report.windows_classified = all.size();
  accumulate_totals(report);
  quarantines_counter().add(report.quarantined_devices);
  return report;
}

}  // namespace pmiot::fleet
