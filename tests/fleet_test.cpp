// Tests for the fleet-scale gateway (src/fleet): deterministic shard-seeded
// world generation, bitwise equality of the batched fleet pass with the
// per-home serial oracle at several pool widths, and a churn soak over a
// long horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "fleet/fleet_gateway.h"
#include "ml/random_forest.h"
#include "net/anomaly.h"
#include "net/fingerprint.h"
#include "reference/fleet_oracle.h"
#include "reference/window_features.h"

namespace pmiot::fleet {
namespace {

struct Models {
  ml::RandomForest forest;
  net::AnomalyDetector detector;
};

/// Trains the shared classifier + detector once per process, on windows the
/// same length as the fleet gateway's default (120 s).
const Models& trained_models() {
  static const Models& models = *[] {
    auto* m = new Models;
    Rng rng(3);
    net::FingerprintOptions options;
    options.instances_per_type = 3;
    options.duration_s = 2 * 3600.0;
    options.window_s = fleet_gateway_defaults().window_s;
    const auto data = net::build_fingerprint_dataset(options, rng);
    m->forest.fit(data);
    m->detector.fit(data);
    return m;
  }();
  return models;
}

TEST(Fleet, MakeHomeIsDeterministicPerHomeIndex) {
  FleetOptions options;
  options.duration_s = 600.0;
  const auto a = make_home(options, 3);
  const auto b = make_home(options, 3);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  ASSERT_EQ(a.packets.size(), b.packets.size());
  EXPECT_EQ(a.infected, b.infected);
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i].timestamp_s, b.packets[i].timestamp_s);
    ASSERT_EQ(a.packets[i].src_ip, b.packets[i].src_ip);
    ASSERT_EQ(a.packets[i].size_bytes, b.packets[i].size_bytes);
  }

  // A different home index is a different world.
  const auto c = make_home(options, 4);
  bool differs = a.devices.size() != c.devices.size() ||
                 a.packets.size() != c.packets.size();
  for (std::size_t i = 0; !differs && i < a.packets.size(); ++i) {
    differs = a.packets[i].timestamp_s != c.packets[i].timestamp_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Fleet, MakeHomeIntoReusedBuffersMatchFreshMakeHome) {
  // The allocation-free shard path: one capture + arena reused across homes
  // (and revisited homes) must produce exactly what the returning overload
  // builds from scratch.
  FleetOptions options;
  options.duration_s = 600.0;
  options.join_fraction = 0.3;
  options.leave_fraction = 0.3;
  HomeCapture reused;
  HomeArena arena;
  for (const std::size_t home : {0u, 7u, 3u, 7u, 0u}) {  // revisits included
    const auto fresh = make_home(options, home);
    make_home_into(options, home, reused, arena);
    EXPECT_EQ(reused.infected, fresh.infected) << "home " << home;
    ASSERT_EQ(reused.devices.size(), fresh.devices.size()) << "home " << home;
    for (std::size_t d = 0; d < fresh.devices.size(); ++d) {
      EXPECT_EQ(reused.devices[d].profile.name, fresh.devices[d].profile.name);
      EXPECT_EQ(reused.devices[d].profile.infection,
                fresh.devices[d].profile.infection);
      EXPECT_EQ(reused.devices[d].join_s, fresh.devices[d].join_s);
      EXPECT_EQ(reused.devices[d].leave_s, fresh.devices[d].leave_s);
    }
    ASSERT_EQ(reused.packets.size(), fresh.packets.size()) << "home " << home;
    for (std::size_t i = 0; i < fresh.packets.size(); ++i) {
      const auto& p = reused.packets[i];
      const auto& q = fresh.packets[i];
      ASSERT_TRUE(p.timestamp_s == q.timestamp_s && p.src_ip == q.src_ip &&
                  p.dst_ip == q.dst_ip && p.src_port == q.src_port &&
                  p.dst_port == q.dst_port && p.protocol == q.protocol &&
                  p.size_bytes == q.size_bytes)
          << "home " << home << " packet " << i;
    }
  }
}

// --- routed extraction against the per-device reference rescan -------------

/// A gateway over the home's roster plus `extra` registered addresses.
net::SmartGateway roster_gateway(const FleetOptions& options,
                                 const HomeCapture& home,
                                 const std::vector<std::uint32_t>& extra) {
  const auto& models = trained_models();
  net::SmartGateway gateway(models.forest, models.detector, options.gateway);
  for (const auto& device : home.devices) {
    gateway.register_device(device.profile.ip, device.profile.name);
  }
  for (const auto ip : extra) {
    gateway.register_device(ip, net::ip_to_string(ip));
  }
  return gateway;
}

/// `extract_rows` must equal, device by device and window by window, the
/// reference rescan over the whole capture, keeping exactly the windows
/// with device traffic.
void expect_rows_match_reference(const net::SmartGateway& gateway,
                                 const std::vector<net::Packet>& packets,
                                 const FleetOptions& options,
                                 const std::string& what) {
  const double window_s = options.gateway.window_s;
  const auto windows =
      static_cast<std::size_t>(gateway.window_count(options.duration_s));
  const auto devices = gateway.extract_rows(packets, options.duration_s);
  for (const auto& device : devices) {
    std::size_t next = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      const auto want = reference::extract_window_features(
          packets, device.ip, static_cast<double>(w) * window_s,
          static_cast<double>(w + 1) * window_s, options.gateway.router_ip);
      if (want[net::kFeaturePktRateUp] == 0.0 &&
          want[net::kFeaturePktRateDown] == 0.0) {
        continue;  // silent window: omitted
      }
      ASSERT_LT(next, device.rows.size()) << what << " " << device.name;
      EXPECT_EQ(device.rows[next].window_index, w)
          << what << " " << device.name;
      EXPECT_EQ(device.rows[next].features, want)
          << what << " " << device.name << " window " << w;
      ++next;
    }
    EXPECT_EQ(next, device.rows.size()) << what << " " << device.name;
  }
}

TEST(Fleet, RoutedExtractionMatchesPerDeviceReference) {
  FleetOptions options;
  options.duration_s = 600.0;
  options.infected_fraction = 1.0;
  const auto silent = net::make_ip(10, 0, 0, 250);  // registered, never sends
  const auto nowhere = net::make_ip(0, 0, 0, 0);
  std::set<net::Infection> infections;
  std::size_t hub_to_peer = 0, unregistered_peer = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    auto home = make_home(options, h);
    infections.insert(home.devices[home.infected].profile.infection);
    // A remote of 0.0.0.0 in both directions, for the first device.
    const auto dev = home.devices.front().profile.ip;
    home.packets.push_back(
        net::Packet{130.5, dev, nowhere, 5, 7, net::Protocol::kUdp, 90});
    home.packets.push_back(
        net::Packet{131.5, nowhere, dev, 7, 5, net::Protocol::kUdp, 91});
    net::sort_by_time(home.packets);
    const auto gateway = roster_gateway(options, home, {silent});

    std::set<std::uint32_t> roster{silent};
    for (const auto& d : home.devices) roster.insert(d.profile.ip);
    for (const auto& p : home.packets) {
      const bool src = roster.count(p.src_ip) != 0;
      const bool dst = roster.count(p.dst_ip) != 0;
      if (src && dst && p.src_ip != p.dst_ip) ++hub_to_peer;
      if (src != dst && net::is_lan(src ? p.dst_ip : p.src_ip) &&
          (src ? p.dst_ip : p.src_ip) != options.gateway.router_ip) {
        ++unregistered_peer;
      }
      EXPECT_NE(p.src_ip, silent);
    }
    expect_rows_match_reference(gateway, home.packets, options,
                                "home " + std::to_string(h));
  }
  // The homes exercised every routing case.
  const std::set<net::Infection> all{net::Infection::kScanner,
                                     net::Infection::kDdosBot,
                                     net::Infection::kExfiltrator};
  EXPECT_EQ(infections, all);
  EXPECT_GT(hub_to_peer, 0u);
  EXPECT_GT(unregistered_peer, 0u);
}

TEST(Fleet, RoutedExtractionOnCaptureShorterThanOneWindow) {
  FleetOptions options;
  options.duration_s = 100.0;  // under the 120 s window
  const auto home = make_home(options, 5);
  ASSERT_FALSE(home.packets.empty());
  const auto gateway = roster_gateway(options, home, {});
  const auto devices = gateway.extract_rows(home.packets, options.duration_s);
  ASSERT_EQ(devices.size(), home.devices.size());
  for (const auto& device : devices) EXPECT_TRUE(device.rows.empty());
}

TEST(Fleet, RoutedExtractionRejectsOutOfOrderUnregisteredTraffic) {
  FleetOptions options;
  options.duration_s = 600.0;
  auto home = make_home(options, 2);
  const auto gateway = roster_gateway(options, home, {});
  // A packet between two unregistered hosts, earlier than its predecessor.
  const auto mid = home.packets.begin() +
                   static_cast<std::ptrdiff_t>(home.packets.size() / 2);
  const double t = mid->timestamp_s - 5.0;
  home.packets.insert(mid, net::Packet{t, net::make_ip(10, 0, 0, 201),
                                       net::make_ip(52, 0, 0, 1), 1, 2,
                                       net::Protocol::kTcp, 60});
  EXPECT_THROW(gateway.extract_rows(home.packets, options.duration_s),
               InvalidArgument);
  EXPECT_THROW(gateway.policy_counts(home.packets, options.duration_s),
               InvalidArgument);
}

// --- the fused shard's per-device streams against the capture path --------

/// Per-row `predict` over each device's rows.
std::vector<std::vector<int>> predict_rows(
    std::span<const net::DeviceRows> devices) {
  const auto& models = trained_models();
  std::vector<std::vector<int>> out;
  for (const auto& device : devices) {
    auto& labels = out.emplace_back();
    for (const auto& row : device.rows) {
      labels.push_back(models.forest.predict(row.features));
    }
  }
  return out;
}

/// A one-home fleet report, so `describe_divergence` compares the reports.
FleetReport one_home(std::size_t devices, std::uint64_t packets,
                     net::GatewayReport report) {
  FleetReport out;
  out.homes.push_back({devices, packets, std::move(report)});
  return out;
}

/// `observe_home` on `home`'s streams must give, device by device, the rows
/// and policy summaries `extract_rows` and `policy_counts` give on
/// `capture`, the same packet count, and a replay equal to
/// `SmartGateway::process` on the capture.
void expect_streams_match_capture(const HomeStreams& home,
                                  const std::vector<net::Packet>& capture,
                                  const FleetOptions& options,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  const auto& models = trained_models();
  net::SmartGateway gateway(models.forest, models.detector, options.gateway);
  for (const auto& device : home.devices) {
    gateway.register_device(device.profile.ip, device.profile.name);
  }
  const auto rows = gateway.extract_rows(capture, options.duration_s);
  const auto counts = gateway.policy_counts(capture, options.duration_s);

  // A reused observation: stale buffers from a bigger home must not leak.
  static HomeObservation seen;
  observe_home(options.gateway, options.duration_s, home, seen);
  const std::size_t n = home.devices.size();
  ASSERT_EQ(seen.devices, n);
  ASSERT_EQ(rows.size(), n);
  EXPECT_EQ(seen.packets, capture.size());
  for (std::size_t d = 0; d < n; ++d) {
    const auto& got = seen.rows[d];
    EXPECT_EQ(got.ip, rows[d].ip);
    EXPECT_EQ(got.name, rows[d].name);
    ASSERT_EQ(got.rows.size(), rows[d].rows.size()) << got.name;
    for (std::size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r].window_index, rows[d].rows[r].window_index);
      EXPECT_EQ(got.rows[r].features, rows[d].rows[r].features)
          << got.name << " row " << r;
    }
    const auto& pc = seen.counts[d];
    EXPECT_EQ(pc.policed, counts[d].policed) << got.name;
    EXPECT_EQ(pc.lateral_total, counts[d].lateral_total) << got.name;
    EXPECT_EQ(pc.nonexempt_from, counts[d].nonexempt_from) << got.name;
    EXPECT_EQ(pc.lateral_nonexempt_from, counts[d].lateral_nonexempt_from)
        << got.name;
  }

  const std::span<const net::DeviceRows> fused_rows(seen.rows.data(), n);
  const auto fused = gateway.replay(fused_rows, predict_rows(fused_rows),
                                    std::span(seen.counts.data(), n),
                                    options.duration_s);
  EXPECT_EQ(describe_divergence(
                one_home(n, seen.packets, fused),
                one_home(n, capture.size(),
                         gateway.process(capture, options.duration_s))),
            "");
}

/// A roster device with address 10.0.0.(10 + index).
DeviceLifecycle roster_device(net::DeviceType type, int index,
                              double duration_s) {
  DeviceLifecycle device;
  device.profile.type = type;
  device.profile.name = std::string(net::to_string(type)) + "-" +
                        std::to_string(index);
  device.profile.ip = net::make_ip(10, 0, 0, 10 + index);
  device.join_s = 0.0;
  device.leave_s = duration_s;
  return device;
}

/// The capture path's input for hand-built streams: their concatenation,
/// stable-sorted by time.
std::vector<net::Packet> capture_of(const HomeStreams& home) {
  std::vector<net::Packet> capture;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    capture.insert(capture.end(), home.streams[d].begin(),
                   home.streams[d].end());
  }
  std::stable_sort(capture.begin(), capture.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return capture;
}

TEST(Fleet, PerDeviceStreamsMatchCapturePath) {
  // Drawn homes: every infection kind, churn, hub polls of registered
  // peers. The capture path polices `make_home`'s capture.
  FleetOptions options;
  options.duration_s = 600.0;
  options.infected_fraction = 1.0;
  options.join_fraction = 0.4;
  options.leave_fraction = 0.4;
  std::set<net::Infection> infections;
  HomeStreams streams;
  for (std::size_t h = 0; h < 24; ++h) {
    emit_home_into(options, h, streams);
    const auto home = make_home(options, h);
    ASSERT_EQ(home.devices.size(), streams.devices.size());
    infections.insert(home.devices[home.infected].profile.infection);
    expect_streams_match_capture(streams, home.packets, options,
                                 "home " + std::to_string(h));
  }
  EXPECT_EQ(infections.size(), 3u);

  // Constructed home. The hub (device 0, lower index) polls devices 1
  // and 3, and the scanner (device 2, higher index) probes them. Device 3
  // left before emitting anything, so it is reached only as a hub peer and
  // a scanner target. At t = 130 device 1 sends a packet of its own and a
  // reply to each side, so both tie directions decide the order of its
  // upstream sizes.
  FleetOptions hand = options;
  const double horizon = hand.duration_s;
  HomeStreams home;
  home.devices = {roster_device(net::DeviceType::kHub, 0, horizon),
                  roster_device(net::DeviceType::kSmartPlug, 1, horizon),
                  roster_device(net::DeviceType::kCamera, 2, horizon),
                  roster_device(net::DeviceType::kDoorLock, 3, horizon)};
  home.devices[2].profile.infection = net::Infection::kScanner;
  home.devices[3].join_s = 200.0;
  home.devices[3].leave_s = 200.0;
  home.infected = 2;
  home.streams.assign(4, {});
  const auto hub = home.devices[0].profile.ip;
  const auto plug = home.devices[1].profile.ip;
  const auto scanner = home.devices[2].profile.ip;
  const auto lock = home.devices[3].profile.ip;
  const auto cloud = net::make_ip(52, 20, 0, 9);
  const auto tcp = net::Protocol::kTcp;
  for (int k = 0; k < 40; ++k) {
    const double t = 5.0 + 14.0 * k;
    const auto port = static_cast<std::uint16_t>(20 + k);
    auto& polls = home.streams[0];
    polls.push_back({t, hub, plug, 40010, 8883, tcp, 150});
    polls.push_back({t + 0.01, plug, hub, 8883, 40010, tcp, 97 + 13 * k});
    polls.push_back({t + 0.1, hub, lock, 40010, 8883, tcp, 150});
    polls.push_back({t + 0.11, lock, hub, 8883, 40010, tcp, 120});
    polls.push_back({t + 0.5, hub, cloud, 40010, 443, tcp, 300});
    auto& probes = home.streams[2];
    probes.push_back({t + 0.25, scanner, plug, 40012, port, tcp, 60});
    probes.push_back({t + 0.26, scanner, lock, 40012, port, tcp, 60});
    probes.push_back({t + 0.3, scanner, cloud, 40012, 23, tcp, 60});
  }
  // The tied packets, each in its emitter's stream at its time position.
  const auto insert_sorted = [&](std::size_t emitter, net::Packet p) {
    auto& stream = home.streams[emitter];
    stream.insert(std::upper_bound(stream.begin(), stream.end(), p,
                                   [](const net::Packet& a,
                                      const net::Packet& b) {
                                     return a.timestamp_s < b.timestamp_s;
                                   }),
                  p);
  };
  // Sizes picked so that the window's mean and standard deviation of
  // upstream sizes (Welford sums) come out different in either wrong order.
  insert_sorted(0, {130.0, plug, hub, 8883, 40010, tcp, 636});
  insert_sorted(2, {130.0, plug, scanner, 9, 40012, tcp, 94});
  home.streams[1] = {{60.0, plug, cloud, 40011, 443, tcp, 410},
                     {130.0, plug, cloud, 40011, 443, tcp, 31},
                     {130.0, plug, cloud, 40011, 443, tcp, 1239},
                     {400.0, plug, cloud, 40011, 443, tcp, 88}};
  expect_streams_match_capture(home, capture_of(home), hand,
                               "constructed home");

  // A home whose devices are all silent: no rows, empty summaries.
  auto silent = home;
  for (auto& stream : silent.streams) stream.clear();
  expect_streams_match_capture(silent, {}, hand, "all-silent home");

  // A stream may hold only its device's packets, in time order, and the
  // roster must ascend as the gateway registers it.
  HomeObservation rejected;
  auto foreign = home;
  foreign.streams[3].push_back({300.0, plug, cloud, 40011, 443, tcp, 60});
  EXPECT_THROW(observe_home(hand.gateway, horizon, foreign, rejected),
               InvalidArgument);
  auto unsorted = home;
  unsorted.streams[1].push_back({10.0, plug, cloud, 40011, 443, tcp, 60});
  EXPECT_THROW(observe_home(hand.gateway, horizon, unsorted, rejected),
               InvalidArgument);
  auto swapped = home;
  std::swap(swapped.devices[0], swapped.devices[1]);
  EXPECT_THROW(observe_home(hand.gateway, horizon, swapped, rejected),
               InvalidArgument);

  // A horizon shorter than one window: no rows, counts still kept.
  FleetOptions short_horizon = options;
  short_horizon.duration_s = 100.0;
  for (std::size_t h = 0; h < 2; ++h) {
    emit_home_into(short_horizon, h, streams);
    expect_streams_match_capture(streams, make_home(short_horizon, h).packets,
                                 short_horizon,
                                 "short home " + std::to_string(h));
  }
}

TEST(Fleet, MakeHomeRespectsRosterAndLifecycles) {
  FleetOptions options;
  options.duration_s = 600.0;
  options.join_fraction = 0.5;
  options.leave_fraction = 0.5;
  for (std::size_t home = 0; home < 16; ++home) {
    const auto world = make_home(options, home);
    ASSERT_GE(world.devices.size(),
              static_cast<std::size_t>(options.min_devices));
    ASSERT_LE(world.devices.size(),
              static_cast<std::size_t>(options.max_devices));
    if (world.infected != kNoInfectedDevice) {
      ASSERT_LT(world.infected, world.devices.size());
      const auto& sick = world.devices[world.infected];
      EXPECT_NE(sick.profile.infection, net::Infection::kNone);
      // The compromised device keeps the full lifetime.
      EXPECT_EQ(sick.join_s, 0.0);
      EXPECT_EQ(sick.leave_s, options.duration_s);
    }
    // The merged capture is time-sorted and every device's emissions stay
    // inside its [join_s, leave_s) lifecycle.
    for (std::size_t i = 1; i < world.packets.size(); ++i) {
      ASSERT_LE(world.packets[i - 1].timestamp_s,
                world.packets[i].timestamp_s);
    }
    // Lifecycle check on each device's own WAN-bound emissions. (LAN-to-LAN
    // packets can carry another device's source address: a hub's poll
    // exchange includes the peer's response, and that traffic belongs to
    // the hub's lifecycle, not the peer's.)
    for (const auto& device : world.devices) {
      ASSERT_LE(0.0, device.join_s);
      ASSERT_LE(device.join_s, device.leave_s);
      ASSERT_LE(device.leave_s, options.duration_s);
      for (const auto& p : world.packets) {
        if (p.src_ip != device.profile.ip || net::is_lan(p.dst_ip)) continue;
        ASSERT_GE(p.timestamp_s, device.join_s);
        ASSERT_LT(p.timestamp_s, device.leave_s);
      }
    }
  }
}

TEST(Fleet, FleetPassMatchesSerialOracleAcrossPoolWidths) {
  const auto& models = trained_models();
  const auto check = [&](std::size_t homes, std::uint64_t base_seed) {
    SCOPED_TRACE("homes " + std::to_string(homes) + ", base seed " +
                 std::to_string(base_seed));
    FleetOptions options;
    options.homes = homes;
    options.duration_s = 600.0;
    options.base_seed = base_seed;
    const FleetGateway fleet(models.forest, models.detector, options);
    const auto oracle =
        reference::run_fleet_serial(models.forest, models.detector, options);
    EXPECT_GT(oracle.packets, 0u);

    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      par::ThreadPool pool(width);
      par::ScopedPoolOverride scoped(pool);
      const auto batched = fleet.process_fleet();
      EXPECT_EQ(describe_divergence(batched, oracle), "")
          << "pool width " << width;
      EXPECT_GT(batched.windows_classified, 0u);
    }
    // And at the process-default pool width.
    const auto batched = fleet.process_fleet();
    EXPECT_EQ(describe_divergence(batched, oracle), "");
  };
  check(24, 7);
  // Seed sweep: a smaller fleet over base seeds 1-32.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) check(16, seed);
}

TEST(Fleet, SoakChurnOverLongHorizon) {
  const auto& models = trained_models();
  FleetOptions options;
  options.homes = 6;
  options.duration_s = 4 * 3600.0;  // 120 gateway windows per home
  options.base_seed = 11;
  options.infected_fraction = 1.0;  // every home hosts one compromise
  options.join_fraction = 0.5;
  options.leave_fraction = 0.5;
  const FleetGateway fleet(models.forest, models.detector, options);
  const auto serial =
      reference::run_fleet_serial(models.forest, models.detector, options);
  const auto batched = fleet.process_fleet();
  EXPECT_EQ(describe_divergence(batched, serial), "");
  EXPECT_GT(batched.windows_classified, 0u);
  // With a compromise in every home over a long horizon, the fleet must
  // catch at least most of them — and drop traffic after it does.
  EXPECT_GE(batched.quarantined_devices, static_cast<std::uint64_t>(
                                             options.homes / 2));
  EXPECT_GT(batched.quarantine_packets_dropped, 0u);
}

TEST(Fleet, RejectsUntrainedDetector) {
  const auto& models = trained_models();
  net::AnomalyDetector unfitted;
  EXPECT_THROW(FleetGateway(models.forest, unfitted, FleetOptions{}),
               InvalidArgument);
}

TEST(Fleet, RejectsEmptyPopulationAndBadRoster) {
  const auto& models = trained_models();
  FleetOptions none;
  none.homes = 0;
  EXPECT_THROW(FleetGateway(models.forest, models.detector, none),
               InvalidArgument);
  FleetOptions bad;
  bad.min_devices = 5;
  bad.max_devices = 4;
  EXPECT_THROW(make_home(bad, 0), InvalidArgument);
}

}  // namespace
}  // namespace pmiot::fleet
