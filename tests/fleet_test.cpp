// Tests for the fleet-scale gateway (src/fleet): deterministic shard-seeded
// world generation, bitwise equality of the batched fleet pass with the
// per-home serial oracle at several pool widths, and a churn soak over a
// long horizon.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
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
  FleetOptions options;
  options.homes = 24;
  options.duration_s = 600.0;
  options.base_seed = 7;
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
