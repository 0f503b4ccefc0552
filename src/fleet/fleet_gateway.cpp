#include "fleet/fleet_gateway.h"

#include <span>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "net/features.h"
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

obs::Timer& stage_timer(const char* name) {
  return obs::MetricsRegistry::instance().timer(name);
}

/// Grows `v` to at least `n` elements; never shrinks it, so the elements'
/// buffers survive a smaller home.
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Classifies the observed home's rows with one `predict_all` call, in
/// (device, window) order, into `predictions[d][r]`. The rows' feature
/// vectors are moved into `batch` and back, so nothing is copied.
void classify_home(const ml::Classifier& classifier, HomeObservation& seen,
                   ml::Dataset& batch,
                   std::vector<std::vector<int>>& predictions) {
  batch.rows.clear();
  for (std::size_t d = 0; d < seen.devices; ++d) {
    for (auto& row : seen.rows[d].rows) {
      batch.rows.push_back(std::move(row.features));
    }
  }
  grow_to(predictions, seen.devices);
  if (batch.rows.empty()) {
    for (std::size_t d = 0; d < seen.devices; ++d) predictions[d].clear();
    return;
  }
  batch.labels.assign(batch.rows.size(), 0);
  const auto flat = classifier.predict_all(batch);
  std::size_t next = 0;
  for (std::size_t d = 0; d < seen.devices; ++d) {
    auto& rows = seen.rows[d].rows;
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(next);
    predictions[d].assign(first,
                          first + static_cast<std::ptrdiff_t>(rows.size()));
    for (auto& row : rows) row.features = std::move(batch.rows[next++]);
  }
  PMIOT_ASSERT(next == flat.size(), "prediction scatter misaligned");
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

// pmiot: no-alloc — the fleet pass draws every home through here, into
// thread-local streams; no definite heap allocation may creep back in
// (vector growth on warm buffers is policed by the counting-operator-new
// probe in `bench/fleet_gateway --self-check`).
void emit_home_into(const FleetOptions& options, std::size_t home,
                    HomeStreams& out) {
  PMIOT_CHECK(options.duration_s > 0.0, "duration must be positive");
  PMIOT_CHECK(options.min_devices >= 1 &&
                  options.max_devices >= options.min_devices,
              "device range must be non-empty");

  Rng rng(par::shard_seed(options.base_seed, home));
  out.devices.clear();
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
  grow_to(out.streams, n);
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

    // The only allocation reachable from here is the one-time registration
    // of the net.sort.runs counter; warm calls allocate nothing.
    // pmiot-lint: allow(no-alloc)
    net::simulate_device_into(lifecycle.profile, options.duration_s,
                              lifecycle.join_s, lifecycle.leave_s, rng,
                              out.streams[d], out.sort);
    out.devices.push_back(std::move(lifecycle));
  }
}

// pmiot: no-alloc — the serial oracle's capture, built in reused buffers
// (the same runtime probe as `emit_home_into`).
void make_home_into(const FleetOptions& options, std::size_t home,
                    HomeCapture& out, HomeArena& arena) {
  emit_home_into(options, home, arena);
  out.devices.assign(arena.devices.begin(), arena.devices.end());
  out.infected = arena.infected;
  // pmiot-lint: allow(no-alloc)
  net::merge_streams(std::span(arena.streams.data(), arena.devices.size()),
                     out.packets, arena.sort);
}

HomeCapture make_home(const FleetOptions& options, std::size_t home) {
  HomeCapture out;
  HomeArena arena;
  make_home_into(options, home, out, arena);
  return out;
}

// pmiot: no-alloc — the fused shard observes every home here, into
// thread-local buffers; warm calls allocate nothing (the same runtime
// probe as `emit_home_into`).
void observe_home(const net::GatewayOptions& gateway, double duration_s,
                  const HomeStreams& home, HomeObservation& out) {
  // The timers' one-time registration is the only allocation reachable
  // from here.
  // pmiot-lint: allow(no-alloc)
  static obs::Timer& window_timer = stage_timer("fleet.window");
  static obs::Timer& policy_timer = stage_timer("fleet.policy_counts");
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  const std::size_t n = home.devices.size();
  const std::size_t windows =
      net::full_window_count(duration_s, gateway.window_s);
  net::DeviceSlots slots;
  for (std::size_t d = 0; d < n; ++d) {
    const auto ip = home.devices[d].profile.ip;
    PMIOT_CHECK(ip != gateway.router_ip, "the router is not a policed device");
    PMIOT_CHECK(d == 0 || home.devices[d - 1].profile.ip < ip,
                "roster addresses must ascend");
    slots.add(ip);
  }
  out.devices = n;
  out.packets = 0;
  grow_to(out.rows, n);
  grow_to(out.counts, n);
  out.peers.reset(n);
  for (std::size_t d = 0; d < n; ++d) {
    out.rows[d].ip = home.devices[d].profile.ip;
    out.rows[d].name = home.devices[d].profile.name;
  }

  // The policy summaries, keyed by source address (a peer's reply to a
  // hub poll counts for the peer), and each packet to another roster
  // device queued for that device.
  {
    obs::ScopedTimer span(policy_timer);
    net::PolicyTally tally(gateway, slots, windows,
                           std::span(out.counts.data(), n));
    for (std::size_t e = 0; e < n; ++e) {
      const auto& stream = home.streams[e];
      tally.add_run(stream);
      out.peers.add_stream(slots, e, stream);
      out.packets += stream.size();
    }
    tally.finish();
  }

  if (windows == 0) {
    // A horizon shorter than one window has no rows; routine under churn.
    for (std::size_t d = 0; d < n; ++d) out.rows[d].rows.clear();
    return;
  }
  obs::ScopedTimer span(window_timer);
  auto& accumulator = out.accumulator;
  if (!accumulator || accumulator->window_s() != gateway.window_s ||
      accumulator->router_ip() != gateway.router_ip) {
    // Restarted for each device below.
    accumulator.emplace(/*device_ip=*/0, gateway.window_s,
                        /*keep_idle_windows=*/false, gateway.router_ip);
  }
  for (std::size_t d = 0; d < n; ++d) {
    accumulator->restart(home.devices[d].profile.ip);
    out.peers.feed(d, home.streams[d], *accumulator);
    accumulator->finish_into(duration_s, out.rows[d].rows);
  }
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
  PMIOT_CHECK(options_.min_devices >= 1 &&
                  options_.max_devices >= options_.min_devices &&
                  options_.max_devices <= net::kMaxDeviceInstances,
              "devices per home must lie in [1, kMaxDeviceInstances]");
  PMIOT_CHECK(detector_.fitted(), "detector must be fitted");
}

FleetReport FleetGateway::process_fleet() const {
  static obs::Timer& shard_timer = stage_timer("fleet.shard");
  static obs::Timer& emit_timer = stage_timer("fleet.emit");
  static obs::Timer& classify_timer = stage_timer("fleet.classify");
  static obs::Timer& replay_timer = stage_timer("fleet.replay");
  const std::size_t n = options_.homes;
  // Replay reads the rows' own device names, so one gateway with no
  // registered devices serves every home.
  const net::SmartGateway gateway(classifier_, detector_, options_.gateway);

  FleetReport report;
  report.homes.resize(n);
  std::vector<std::uint64_t> windows(n, 0);
  par::parallel_for(0, n, [&](std::size_t h) {
    // Per-pool-thread buffers, warm across the homes a thread runs.
    struct Shard {
      HomeStreams home;
      HomeObservation seen;
      ml::Dataset batch;
      std::vector<std::vector<int>> predictions;
    };
    static thread_local Shard shard;
    obs::ScopedTimer busy(shard_timer);
    {
      obs::ScopedTimer span(emit_timer);
      emit_home_into(options_, h, shard.home);
    }
    auto& seen = shard.seen;
    observe_home(options_.gateway, options_.duration_s, shard.home, seen);
    {
      obs::ScopedTimer span(classify_timer);
      classify_home(classifier_, seen, shard.batch, shard.predictions);
    }
    auto& out = report.homes[h];
    {
      obs::ScopedTimer span(replay_timer);
      out.report = gateway.replay(
          std::span(seen.rows.data(), seen.devices),
          std::span(shard.predictions.data(), seen.devices),
          std::span(seen.counts.data(), seen.devices), options_.duration_s);
    }
    out.devices = seen.devices;
    out.packets = seen.packets;
    for (std::size_t d = 0; d < seen.devices; ++d) {
      windows[h] += seen.rows[d].rows.size();
    }
    packets_counter().add(seen.packets);
  });
  homes_counter().add(n);

  for (const auto w : windows) report.windows_classified += w;
  accumulate_totals(report);
  quarantines_counter().add(report.quarantined_devices);
  return report;
}

}  // namespace pmiot::fleet
