// Tests for the IoT network substrate: packets/flows, device models,
// features, fingerprinting, anomaly detection, and the smart gateway.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "ml/random_forest.h"
#include "ml/metrics.h"
#include "net/anomaly.h"
#include "net/device.h"
#include "net/features.h"
#include "net/fingerprint.h"
#include "net/gateway.h"

#include "net/packet.h"
#include "net/window_accumulator.h"
#include "obs/metrics.h"
#include "reference/flow_table.h"
#include "reference/window_features.h"

namespace pmiot::net {
namespace {

using reference::extract_window_features;

TEST(Ip, RoundTripAndLanCheck) {
  const auto ip = make_ip(10, 0, 0, 42);
  EXPECT_EQ(ip_to_string(ip), "10.0.0.42");
  EXPECT_TRUE(is_lan(ip));
  EXPECT_FALSE(is_lan(make_ip(52, 20, 0, 1)));
  EXPECT_THROW(make_ip(256, 0, 0, 1), InvalidArgument);
}

TEST(Ip, DeviceSlotsRouteByLastOctet) {
  DeviceSlots slots;
  slots.add(make_ip(10, 0, 0, 12));
  slots.add(make_ip(10, 0, 0, 10));
  EXPECT_EQ(slots[make_ip(10, 0, 0, 12)], 0);
  EXPECT_EQ(slots[make_ip(10, 0, 0, 10)], 1);
  EXPECT_EQ(slots[make_ip(10, 0, 0, 11)], -1);  // LAN, never added
  EXPECT_EQ(slots[make_ip(52, 20, 0, 12)], -1);  // same octet, off the LAN
  EXPECT_THROW(slots.add(make_ip(52, 20, 0, 1)), InvalidArgument);
  EXPECT_THROW(slots.add(make_ip(10, 0, 0, 10)), InvalidArgument);
}

// --- flows ------------------------------------------------------------------
//
// The reference flow table is the oracle for the accumulator's flow
// counts (feature 16), so its own flow semantics are pinned here.

TEST(FlowTable, AggregatesBidirectionalFlow) {
  reference::FlowTable table;
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  table.add(Packet{0.0, dev, cloud, 40010, 443, Protocol::kTcp, 100});
  table.add(Packet{0.1, cloud, dev, 443, 40010, Protocol::kTcp, 60});
  table.add(Packet{0.2, dev, cloud, 40010, 443, Protocol::kTcp, 200});
  ASSERT_EQ(table.flows().size(), 1u);
  const auto& flow = table.flows()[0];
  EXPECT_EQ(flow.packets(), 3u);
  EXPECT_EQ(flow.bytes(), 360u);
  EXPECT_NEAR(flow.duration_s(), 0.2, 1e-9);
  // The canonical key has the smaller endpoint first (the LAN 10.x side).
  EXPECT_EQ(flow.key.ip_a, dev);
  EXPECT_EQ(flow.packets_ab, 2u);
  EXPECT_EQ(flow.packets_ba, 1u);
}

TEST(FlowTable, IdleTimeoutStartsNewFlow) {
  reference::FlowTable table(30.0);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  table.add(Packet{0.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  table.add(Packet{100.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  EXPECT_EQ(table.flows().size(), 2u);
}

TEST(FlowTable, DistinguishesProtocols) {
  reference::FlowTable table;
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  table.add(Packet{0.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  table.add(Packet{0.1, dev, cloud, 1, 443, Protocol::kUdp, 100});
  EXPECT_EQ(table.flows().size(), 2u);
}

TEST(FlowTable, IdleTimeoutReplacesTheSameKeyInBothDirections) {
  reference::FlowTable table(30.0);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  table.add(Packet{0.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  table.add(Packet{100.0, cloud, dev, 443, 1, Protocol::kTcp, 50});  // new flow
  table.add(Packet{110.0, dev, cloud, 1, 443, Protocol::kTcp, 70});  // joins it
  table.add(Packet{200.0, dev, cloud, 1, 443, Protocol::kTcp, 10});  // new flow
  ASSERT_EQ(table.flows().size(), 3u);
  EXPECT_EQ(table.flows()[1].packets_ba, 1u);
  EXPECT_EQ(table.flows()[1].packets_ab, 1u);
  EXPECT_EQ(table.flows()[1].bytes(), 120u);
  EXPECT_EQ(table.flows()[2].packets(), 1u);
}

// --- the run-merge time sort ------------------------------------------------

// Packets tagged with their input position (in size_bytes) so a stability
// violation shows up as a tag mismatch.
std::vector<Packet> tagged(const std::vector<double>& times) {
  std::vector<Packet> out;
  for (std::size_t i = 0; i < times.size(); ++i) {
    out.push_back(Packet{times[i], make_ip(10, 0, 0, 10), make_ip(52, 20, 0, 1),
                         1, 443, Protocol::kTcp, static_cast<int>(i)});
  }
  return out;
}

void expect_sorts_like_stable_sort(std::vector<Packet> packets,
                                   SortScratch& scratch,
                                   const std::string& what) {
  auto want = packets;
  std::stable_sort(want.begin(), want.end(),
                   [](const Packet& a, const Packet& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  auto fresh = packets;
  sort_by_time(fresh);
  sort_by_time(packets, scratch);
  for (const auto* got : {&fresh, &packets}) {
    ASSERT_EQ(got->size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& p = (*got)[i];
      ASSERT_EQ(p.timestamp_s, want[i].timestamp_s) << what << " @" << i;
      ASSERT_EQ(p.size_bytes, want[i].size_bytes) << what << " @" << i;
    }
  }
}

TEST(SortByTime, MatchesStableSortOnRunsWithCrossRunTies) {
  SortScratch scratch;  // reused across every case
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(900 + seed);
    // A few sorted runs on a coarse time grid, so many timestamps tie
    // across runs; an occasional shuffled stretch adds short runs.
    std::vector<double> times;
    const auto runs = rng.uniform_int(1, 17);
    for (std::int64_t r = 0; r < runs; ++r) {
      double t = static_cast<double>(rng.uniform_int(0, 5));
      const auto len = rng.uniform_int(0, 300);
      for (std::int64_t i = 0; i < len; ++i) {
        times.push_back(t);
        if (rng.bernoulli(0.6)) t += static_cast<double>(rng.uniform_int(1, 3));
      }
    }
    if (seed % 5 == 0) {
      for (int i = 0; i < 50; ++i) {
        times.push_back(static_cast<double>(rng.uniform_int(0, 40)));
      }
    }
    expect_sorts_like_stable_sort(tagged(times), scratch,
                                  "seed " + std::to_string(seed));
  }
}

TEST(SortByTime, EdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SortScratch scratch;  // reused across every case
  const std::vector<std::pair<std::string, std::vector<double>>> cases = {
      {"empty", {}},
      {"one packet", {3.0}},
      {"already sorted", {0.0, 1.0, 1.0, 2.0, 5.0}},
      {"reversed", {5.0, 4.0, 3.0, 2.0, 1.0, 0.0}},
      {"all equal", {2.0, 2.0, 2.0, 2.0}},
      {"three runs", {1.0, 2.0, 0.0, 2.0, 1.0, 1.0}},
      {"five runs", {3.0, 2.0, 4.0, 1.0, 1.0, 0.0, 9.0, 2.0}},
      {"two runs", {1.0, 2.0, 3.0, 1.0, 2.0, 3.0}},
      // A live run at +inf must still beat the runs already spent.
      {"infinite timestamps", {kInf, 1.0, kInf, -kInf, kInf, 0.0, kInf}},
  };
  for (const auto& [name, times] : cases) {
    expect_sorts_like_stable_sort(tagged(times), scratch, name);
  }
}

TEST(SortByTime, CountsRunsOncePerCall) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& runs = registry.counter("net.sort.runs");
  registry.reset_values_for_testing();
  obs::set_enabled_for_testing(true);
  auto packets = tagged({1.0, 2.0, 0.0, 2.0, 1.0, 1.0});  // three runs
  sort_by_time(packets);
  const auto counted = runs.value();
  sort_by_time(packets);  // now one run
  const auto counted_sorted = runs.value() - counted;
  obs::set_enabled_for_testing(false);
  registry.reset_values_for_testing();
  EXPECT_EQ(counted, 3u);
  EXPECT_EQ(counted_sorted, 1u);
}

// --- the tie-ordered run merge ---------------------------------------------

/// What `merge_by_time` feeds from `runs`, in order.
template <std::size_t N>
std::vector<Packet> merged(const std::array<std::vector<Packet>, N>& runs) {
  std::array<std::span<const Packet>, N> spans;
  for (std::size_t r = 0; r < N; ++r) spans[r] = runs[r];
  std::vector<Packet> out;
  merge_by_time(spans, [&](const Packet& p) { out.push_back(p); });
  return out;
}

/// `std::stable_sort` by time of the runs' concatenation.
template <std::size_t N>
std::vector<Packet> stable_sorted(
    const std::array<std::vector<Packet>, N>& runs) {
  std::vector<Packet> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Packet& a, const Packet& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return all;
}

/// A sorted run of `n` packets on a coarse time grid, so many timestamps
/// tie within it and with other runs; each packet carries its run in
/// src_port and its position in size_bytes.
std::vector<Packet> coarse_run(Rng& rng, std::size_t n, std::uint16_t run) {
  std::vector<Packet> out;
  double t = static_cast<double>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Packet{t, make_ip(10, 0, 0, 10), make_ip(52, 20, 0, 1), run,
                         443, Protocol::kTcp, static_cast<int>(i)});
    if (rng.bernoulli(0.5)) t += static_cast<double>(rng.uniform_int(1, 2));
  }
  return out;
}

TEST(MergeByTime, EqualsStableSortOfTheConcatenation) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    // Sizes 0 to 12, a quarter of them empty runs.
    const auto size = [&] {
      return rng.bernoulli(0.25)
                 ? std::size_t{0}
                 : static_cast<std::size_t>(rng.uniform_int(1, 12));
    };
    const std::array<std::vector<Packet>, 3> three = {
        coarse_run(rng, size(), 0), coarse_run(rng, size(), 1),
        coarse_run(rng, size(), 2)};
    EXPECT_EQ(merged(three), stable_sorted(three)) << "trial " << trial;
    const std::array<std::vector<Packet>, 2> two = {
        coarse_run(rng, size(), 0), coarse_run(rng, size(), 1)};
    EXPECT_EQ(merged(two), stable_sorted(two)) << "trial " << trial;
    const std::array<std::vector<Packet>, 1> one = {
        coarse_run(rng, size(), 0)};
    EXPECT_EQ(merged(one), one[0]) << "trial " << trial;
  }
}

TEST(MergeByTime, TiesGoToTheEarlierRun) {
  // Six packets at t = 1 across three runs: run 0's two, then run 1's
  // two, then run 2's, each run's in its own order.
  std::array<std::vector<Packet>, 3> runs = {
      tagged({1.0, 1.0, 2.0}), tagged({1.0, 1.0}), tagged({0.0, 1.0, 1.0})};
  for (std::uint16_t r = 0; r < 3; ++r) {
    for (auto& p : runs[r]) p.src_port = r;
  }
  // (time, run, position in the run)
  std::vector<std::tuple<double, int, int>> seen;
  for (const auto& p : merged(runs)) {
    seen.emplace_back(p.timestamp_s, p.src_port, p.size_bytes);
  }
  const std::vector<std::tuple<double, int, int>> want = {
      {0.0, 2, 0}, {1.0, 0, 0}, {1.0, 0, 1}, {1.0, 1, 0},
      {1.0, 1, 1}, {1.0, 2, 1}, {1.0, 2, 2}, {2.0, 0, 2}};
  EXPECT_EQ(seen, want);
  EXPECT_TRUE(merged(std::array<std::vector<Packet>, 3>{}).empty());
}

TEST(MergeByTime, AnUnsortedRunKeepsItsOrder) {
  // Run 0 steps back in time; the merge keeps its order, so a sink that
  // checks time order sees the step, as `WindowAccumulator::add` does.
  const std::array<std::vector<Packet>, 2> runs = {tagged({5.0, 3.0}),
                                                   tagged({4.0})};
  std::vector<double> times;
  for (const auto& p : merged(runs)) times.push_back(p.timestamp_s);
  EXPECT_EQ(times, (std::vector<double>{4.0, 5.0, 3.0}));
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const std::array<std::vector<Packet>, 2> with_nan = {
      tagged({1.0, nan, 2.0}), tagged({1.5})};
  EXPECT_EQ(merged(with_nan).size(), 4u);  // every packet is fed once
}

TEST(Device, SimulateDeviceIntoIsTheSortedFilteredDraw) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng profile_rng(seed);
    auto profile = make_device(
        static_cast<DeviceType>(seed % kNumDeviceTypes), 3, profile_rng);
    if (seed % 3 == 0) {
      profile.infection = Infection::kScanner;
      profile.infection_start_s = 200.0;
    }
    // A horizon that ends 5 ms into the first heartbeat (the first packet
    // drawn), so its reply, 10 ms on, lands past it.
    Rng probe_rng(seed);
    std::vector<Packet> probe;
    simulate_device_append(profile, 600.0, probe_rng, probe);
    const double cut_s = probe.front().timestamp_s + 0.005;
    struct Case {
      double duration_s, join_s, leave_s;
    };
    const Case cases[] = {{600.0, 0.0, 600.0},
                          {600.0, 120.0, 600.0},
                          {600.0, 0.0, 450.0},
                          {600.0, 90.0, 300.0},
                          {cut_s, 0.0, cut_s}};
    SortScratch sort;  // reused across every draw
    for (const auto& c : cases) {
      const std::string what =
          "seed " + std::to_string(seed) + " duration " +
          std::to_string(c.duration_s) + " [" + std::to_string(c.join_s) +
          ", " + std::to_string(c.leave_s) + ")";
      Rng rng(seed), oracle_rng(seed);
      std::vector<Packet> got(3);  // replaced, not appended to
      simulate_device_into(profile, c.duration_s, c.join_s, c.leave_s, rng,
                           got, sort);
      std::vector<Packet> want;
      simulate_device_append(profile, c.duration_s, oracle_rng, want);
      if (c.join_s > 0.0 || c.leave_s < c.duration_s) {
        std::erase_if(want, [&](const Packet& p) {
          return p.timestamp_s < c.join_s || p.timestamp_s >= c.leave_s;
        });
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const Packet& a, const Packet& b) {
                         return a.timestamp_s < b.timestamp_s;
                       });
      ASSERT_FALSE(want.empty()) << what;
      if (c.duration_s == cut_s) {
        EXPECT_GE(want.back().timestamp_s, cut_s) << what;
      }
      ASSERT_EQ(got.size(), want.size()) << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].timestamp_s),
                  std::bit_cast<std::uint64_t>(want[i].timestamp_s))
            << what << " packet " << i;
      }
      EXPECT_EQ(got, want) << what;
      EXPECT_EQ(rng.next(), oracle_rng.next()) << what;
    }
  }
}

TEST(Device, ProfilesDifferByType) {
  Rng rng(1);
  const auto camera = make_device(DeviceType::kCamera, 0, rng);
  const auto lock = make_device(DeviceType::kDoorLock, 1, rng);
  EXPECT_GT(camera.stream_pkt_per_s, 0.0);
  EXPECT_DOUBLE_EQ(lock.stream_pkt_per_s, 0.0);
  EXPECT_LT(camera.heartbeat_period_s, lock.heartbeat_period_s);
  EXPECT_NE(camera.ip, lock.ip);
}

TEST(Device, HeartbeatCountMatchesPeriod) {
  Rng rng(2);
  auto profile = make_device(DeviceType::kSmartPlug, 0, rng);
  profile.telemetry_period_s = 0.0;  // isolate heartbeats
  profile.event_rate_per_hour = 0.0;
  profile.dns_rate_per_hour = 0.0;
  const double duration = 3600.0;
  const auto packets = simulate_device(profile, duration, rng);
  // Each heartbeat is a 2-packet exchange.
  const double expected = duration / profile.heartbeat_period_s;
  EXPECT_NEAR(static_cast<double>(packets.size()) / 2.0, expected,
              expected * 0.3);
}

TEST(Device, PacketsAreTimeOrderedAndBounded) {
  Rng rng(3);
  const auto profile = make_device(DeviceType::kCamera, 0, rng);
  const auto packets = simulate_device(profile, 1800.0, rng);
  ASSERT_FALSE(packets.empty());
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_GE(packets[i].timestamp_s, packets[i - 1].timestamp_s);
  }
  for (const auto& p : packets) {
    EXPECT_GE(p.timestamp_s, 0.0);
    EXPECT_LT(p.timestamp_s, 1800.0 + 30.0);  // exchange tails may run over
    EXPECT_GT(p.size_bytes, 0);
    EXPECT_LE(p.size_bytes, 1400);
  }
}

TEST(Device, ScannerTouchesManyDestinations) {
  Rng rng(4);
  auto profile = make_device(DeviceType::kCamera, 0, rng);
  profile.infection = Infection::kScanner;
  profile.infection_start_s = 0.0;
  const auto packets = simulate_device(profile, 600.0, rng);
  std::set<std::uint32_t> destinations;
  for (const auto& p : packets) {
    if (p.src_ip == profile.ip) destinations.insert(p.dst_ip);
  }
  EXPECT_GT(destinations.size(), 100u);
}

TEST(Device, DdosBotFloodsOneVictim) {
  Rng rng(5);
  auto profile = make_device(DeviceType::kSmartPlug, 0, rng);
  profile.infection = Infection::kDdosBot;
  profile.infection_start_s = 0.0;
  const auto packets = simulate_device(profile, 600.0, rng);
  std::size_t flood = 0;
  for (const auto& p : packets) {
    if (p.dst_ip == make_ip(203, 0, 113, 7)) ++flood;
  }
  EXPECT_GT(flood, 500u);
}

TEST(Device, InfectionStartsOnTime) {
  Rng rng(6);
  auto profile = make_device(DeviceType::kSpeaker, 0, rng);
  profile.infection = Infection::kExfiltrator;
  profile.infection_start_s = 300.0;
  const auto packets = simulate_device(profile, 600.0, rng);
  const auto sink = make_ip(198, 51, 100, 23);
  for (const auto& p : packets) {
    if (p.dst_ip == sink) {
      EXPECT_GE(p.timestamp_s, 300.0);
    }
  }
}

TEST(HomeNetwork, AllDevicesEmit) {
  Rng rng(7);
  const auto home = simulate_home_network(1, 900.0, rng);
  EXPECT_EQ(home.devices.size(), static_cast<std::size_t>(kNumDeviceTypes));
  for (const auto& device : home.devices) {
    bool found = false;
    for (const auto& p : home.packets) {
      if (p.src_ip == device.ip) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << device.name;
  }
}

// --- features --------------------------------------------------------------------

TEST(Features, SilentDeviceIsAllZero) {
  const std::vector<Packet> none;
  const auto f =
      extract_window_features(none, make_ip(10, 0, 0, 10), 0.0, 600.0);
  ASSERT_EQ(f.size(), feature_names().size());
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Features, RatesAndDirectionality) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<Packet> packets;
  for (int i = 0; i < 60; ++i) {
    packets.push_back(Packet{i * 10.0, dev, cloud, 1, 443, Protocol::kTcp, 1000});
  }
  const auto f = extract_window_features(packets, dev, 0.0, 600.0);
  EXPECT_NEAR(f[0], 0.1, 1e-9);        // pkt_rate_up
  EXPECT_DOUBLE_EQ(f[1], 0.0);         // nothing downstream
  EXPECT_NEAR(f[2], 100.0, 1e-9);      // byte_rate_up
  EXPECT_DOUBLE_EQ(f[7], 1.0);         // all bytes upstream
  EXPECT_DOUBLE_EQ(f[9], 1.0);         // one remote
}

TEST(Features, PeriodicTrafficHasLowIatCv) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<Packet> regular, bursty;
  for (int i = 0; i < 60; ++i) {
    regular.push_back(Packet{i * 10.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
    // Bursty: all packets in the first minute.
    bursty.push_back(Packet{i * 1.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  }
  const auto fr = extract_window_features(regular, dev, 0.0, 600.0);
  const auto fb = extract_window_features(bursty, dev, 0.0, 600.0);
  EXPECT_LT(fr[13], 0.1);                // iat_cv for metronome traffic
  EXPECT_GT(fb[14], fr[14]);             // burst rate higher for bursty
}

TEST(Features, FlowCountTracksDistinctFlows) {
  const auto dev = make_ip(10, 0, 0, 10);
  std::vector<Packet> packets;
  // Three distinct remote endpoints -> three flows.
  for (int r = 0; r < 3; ++r) {
    const auto remote = make_ip(52, 20, 0, 10 + r);
    for (int i = 0; i < 5; ++i) {
      packets.push_back(Packet{r * 10.0 + i, dev, remote, 1,
                               static_cast<std::uint16_t>(443), Protocol::kTcp,
                               100});
    }
  }
  const auto f = extract_window_features(packets, dev, 0.0, 600.0);
  EXPECT_DOUBLE_EQ(f[16], 3.0);
}

TEST(Features, WindowedSkipsSilentWindows) {
  Rng rng(8);
  auto profile = make_device(DeviceType::kDoorLock, 0, rng);
  const auto packets = simulate_device(profile, 3600.0, rng);
  const auto rows = windowed_features(packets, profile.ip, 3600.0, 600.0);
  EXPECT_LE(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_LT(row.window_index, 6u);
    EXPECT_EQ(row.features.size(), feature_names().size());
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].window_index, rows[i].window_index);
  }
}

TEST(Features, DnsRateCountsExchangesNotPackets) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto router = make_ip(10, 0, 0, 1);
  std::vector<Packet> packets;
  // Two DNS exchanges in one minute: each is a query up plus a response
  // down. The rate must count exchanges (2/min), not packets (4/min).
  for (int i = 0; i < 2; ++i) {
    packets.push_back(
        Packet{5.0 + i * 20.0, dev, router, 40000, 53, Protocol::kUdp, 60});
    packets.push_back(Packet{5.1 + i * 20.0, router, dev, 53, 40000,
                             Protocol::kUdp, 140});
  }
  const auto f = extract_window_features(packets, dev, 0.0, 60.0);
  EXPECT_DOUBLE_EQ(f[15], 2.0);
}

TEST(Features, BurstRateNormalizesTruncatedBucket) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  // Window [0, 15): the final bucket [10, 15) is only 5 s wide. Five
  // packets there are a rate of 1/s, not 0.5/s.
  std::vector<Packet> packets;
  for (int i = 0; i < 5; ++i) {
    packets.push_back(
        Packet{10.0 + i, dev, cloud, 1, 443, Protocol::kTcp, 100});
  }
  const auto f = extract_window_features(packets, dev, 0.0, 15.0);
  EXPECT_DOUBLE_EQ(f[14], 1.0);

  // A packet just before the window end still lands in the last bucket
  // (no out-of-range bucket index), and one at the end is excluded.
  std::vector<Packet> edge;
  edge.push_back(Packet{599.999, dev, cloud, 1, 443, Protocol::kTcp, 100});
  edge.push_back(Packet{600.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  const auto g = extract_window_features(edge, dev, 0.0, 600.0);
  EXPECT_DOUBLE_EQ(g[0], 1.0 / 600.0);
  EXPECT_DOUBLE_EQ(g[14], 0.1);
}

TEST(Features, WindowedKeepsIndicesAcrossIdleGaps) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  // Traffic in windows 0 and 3 only; windows 1-2 are idle.
  std::vector<Packet> packets;
  packets.push_back(Packet{10.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  packets.push_back(Packet{1810.0, dev, cloud, 1, 443, Protocol::kTcp, 100});

  const auto rows = windowed_features(packets, dev, 2400.0, 600.0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].window_index, 0u);
  EXPECT_EQ(rows[1].window_index, 3u);

  const auto all = windowed_features(packets, dev, 2400.0, 600.0,
                                     /*keep_idle_windows=*/true);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t w = 0; w < all.size(); ++w) {
    EXPECT_EQ(all[w].window_index, w);
  }
  for (double v : all[1].features) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : all[2].features) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Features, RouterIpIsConfigurable) {
  // A deployment whose gateway is not 10.0.0.1 must not count the router
  // as an ordinary LAN peer (lan_fraction) in either extraction path.
  const auto dev = make_ip(10, 0, 0, 10);
  const auto router = make_ip(10, 0, 0, 254);
  std::vector<Packet> packets{
      {1.0, dev, router, 40000, 53, Protocol::kUdp, 60},
      {2.0, dev, make_ip(52, 20, 0, 1), 40000, 443, Protocol::kTcp, 500},
  };
  const std::size_t lan_fraction = 11;

  // Default router identity: 10.0.0.254 looks like a LAN peer.
  const auto misread = extract_window_features(packets, dev, 0.0, 600.0);
  EXPECT_DOUBLE_EQ(misread[lan_fraction], 0.5);
  // Threading the real router through excludes it, like 10.0.0.1 would be.
  const auto read = extract_window_features(packets, dev, 0.0, 600.0, router);
  EXPECT_DOUBLE_EQ(read[lan_fraction], 0.0);

  // Both paths agree for the non-default router too.
  const auto rows = windowed_features(packets, dev, 600.0, 600.0,
                                      /*keep_idle_windows=*/false, router);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].features, read);
  WindowAccumulator accumulator(dev, 600.0, /*keep_idle_windows=*/false,
                                router);
  for (const auto& p : packets) accumulator.add(p);
  EXPECT_EQ(accumulator.finish(600.0).at(0).features, read);
}

TEST(Features, DefaultRouterConstantMatchesGatewayDefault) {
  EXPECT_EQ(kDefaultRouterIp, make_ip(10, 0, 0, 1));
  EXPECT_EQ(GatewayOptions{}.router_ip, kDefaultRouterIp);
}

// --- the streaming accumulator ----------------------------------------------------

// Random gateway-style traffic exercising every feature: cloud exchanges,
// DNS, LAN chatter, bursts, idle stretches, and other devices' packets the
// accumulator must ignore.
std::vector<Packet> random_trace(Rng& rng, std::uint32_t device_ip,
                                 double duration_s) {
  std::vector<Packet> out;
  const auto cloud = make_ip(52, 20, 0, 1);
  const auto router = make_ip(10, 0, 0, 1);
  const int n = static_cast<int>(rng.uniform_int(50, 400));
  for (int i = 0; i < n; ++i) {
    // Cluster some traffic to create bursts and leave idle windows.
    double t = rng.bernoulli(0.3)
                   ? rng.uniform(0.0, duration_s * 0.2)
                   : rng.uniform(0.0, duration_s * 1.05);
    const double roll = rng.uniform();
    const auto size = static_cast<int>(rng.uniform_int(40, 1400));
    if (roll < 0.35) {  // upstream to the cloud
      out.push_back(Packet{t, device_ip, cloud,
                           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
                           static_cast<std::uint16_t>(rng.bernoulli(0.5) ? 443 : 8883),
                           rng.bernoulli(0.3) ? Protocol::kUdp : Protocol::kTcp,
                           size});
    } else if (roll < 0.55) {  // downstream
      out.push_back(Packet{t, cloud, device_ip, 443,
                           static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
                           Protocol::kTcp, size});
    } else if (roll < 0.7) {  // DNS exchange with the router
      out.push_back(Packet{t, device_ip, router, 40000, 53, Protocol::kUdp, 60});
      out.push_back(Packet{t + 0.05, router, device_ip, 53, 40000,
                           Protocol::kUdp, 140});
    } else if (roll < 0.85) {  // LAN chatter with another IoT host
      const auto peer =
          make_ip(10, 0, 0, static_cast<int>(rng.uniform_int(11, 40)));
      out.push_back(Packet{t, device_ip, peer, 8883, 8883, Protocol::kTcp, 150});
    } else {  // unrelated traffic the accumulator must skip
      out.push_back(Packet{t, make_ip(10, 0, 0, 99), cloud, 5000, 443,
                           Protocol::kTcp, size});
    }
  }
  sort_by_time(out);
  return out;
}

TEST(WindowAccumulator, MatchesReferenceBitForBit) {
  const auto dev = make_ip(10, 0, 0, 10);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 + seed);
    // Odd window lengths exercise the truncated final burst bucket; the
    // duration leaves a partial trailing window the pipeline must drop.
    const double window_s = (seed % 3 == 0) ? 47.0 : 60.0;
    const double duration_s = 600.0 + static_cast<double>(seed % 2) * 33.0;
    const auto packets = random_trace(rng, dev, duration_s);

    const auto rows = windowed_features(packets, dev, duration_s, window_s,
                                        /*keep_idle_windows=*/true);
    std::size_t expected_windows = 0;
    while (static_cast<double>(expected_windows + 1) * window_s <=
           duration_s) {
      ++expected_windows;
    }
    ASSERT_EQ(rows.size(), expected_windows) << "seed " << seed;
    for (std::size_t w = 0; w < rows.size(); ++w) {
      const auto reference = extract_window_features(
          packets, dev, static_cast<double>(w) * window_s,
          static_cast<double>(w + 1) * window_s);
      ASSERT_EQ(rows[w].features.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(rows[w].features[k], reference[k])
            << "seed " << seed << " window " << w << " feature "
            << feature_names()[k];
      }
    }
  }
}

TEST(WindowAccumulator, MatchesReferenceOnSimulatedHome) {
  Rng rng(31);
  const auto home = simulate_home_network(1, 1800.0, rng);
  for (const auto& device : home.devices) {
    const auto rows = windowed_features(home.packets, device.ip, 1800.0,
                                        600.0, /*keep_idle_windows=*/true);
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t w = 0; w < rows.size(); ++w) {
      const auto reference = extract_window_features(
          home.packets, device.ip, static_cast<double>(w) * 600.0,
          static_cast<double>(w + 1) * 600.0);
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(rows[w].features[k], reference[k]) << device.name;
      }
    }
  }
}

// The IAT median and CV at the smallest windows that have them and with
// tied gaps: 3 and 4 upstream packets (2 and 3 IATs, the even and odd
// median), gaps arriving largest first, and repeated and zero gaps.
TEST(WindowAccumulator, IatMedianMatchesReferenceAtTheEdges) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  const std::vector<std::vector<double>> up_times = {
      {0.0, 5.0, 6.0},                        // IATs 5, 1
      {60.0, 70.0, 71.0, 71.5},               // IATs 10, 1, 0.5
      {120.0, 121.0, 122.0, 123.0, 130.0},    // IATs 1, 1, 1, 7
      {180.0, 180.25, 180.5, 180.5, 181.0},   // IATs 0.25, 0.25, 0, 0.5
      {240.0, 243.0, 246.0, 249.0},           // IATs 3, 3, 3
  };
  const std::vector<double> medians = {3.0, 1.0, 1.0, 0.25, 3.0};
  const double window_s = 60.0;
  std::vector<Packet> packets;
  for (const auto& window : up_times) {
    for (const double t : window) {
      packets.push_back(Packet{t, dev, cloud, 40000, 443, Protocol::kTcp, 100});
      // Downstream replies never enter the upstream IATs.
      packets.push_back(
          Packet{t + 0.1, cloud, dev, 443, 40000, Protocol::kTcp, 900});
    }
  }
  sort_by_time(packets);
  const double duration_s = window_s * static_cast<double>(up_times.size());
  WindowAccumulator acc(dev, window_s);
  for (const auto& p : packets) acc.add(p);
  const auto rows = acc.finish(duration_s);
  ASSERT_EQ(rows.size(), up_times.size());
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t w = 0; w < rows.size(); ++w) {
    const auto reference = extract_window_features(
        packets, dev, static_cast<double>(w) * window_s,
        static_cast<double>(w + 1) * window_s);
    EXPECT_EQ(rows[w].features[12], medians[w]) << "window " << w;
    EXPECT_EQ(bits(rows[w].features[12]), bits(reference[12]))
        << "window " << w;
    EXPECT_EQ(bits(rows[w].features[13]), bits(reference[13]))
        << "window " << w;
  }
}

TEST(WindowAccumulator, RejectsOutOfOrderPackets) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  WindowAccumulator acc(dev, 600.0);
  acc.add(Packet{100.0, dev, cloud, 1, 443, Protocol::kTcp, 100});
  EXPECT_THROW(acc.add(Packet{50.0, dev, cloud, 1, 443, Protocol::kTcp, 100}),
               InvalidArgument);
}

TEST(RoutePackets, RejectsOutOfOrderPacketsOfUnroutedHosts) {
  // The second packet involves no registered device, so no accumulator
  // sees it; the capture is still unsorted and must be refused. Routing
  // reads no model, so untrained ones do.
  const auto dev = make_ip(10, 0, 0, 10);
  const auto stranger = make_ip(10, 0, 0, 77);
  const auto cloud = make_ip(52, 20, 0, 1);
  const ml::RandomForest forest;
  const AnomalyDetector detector;
  SmartGateway gateway(forest, detector, GatewayOptions{});
  gateway.register_device(dev, "dev");
  const std::vector<Packet> packets = {
      {100.0, dev, cloud, 1, 443, Protocol::kTcp, 100},
      {50.0, stranger, cloud, 1, 443, Protocol::kTcp, 100},
      {200.0, dev, cloud, 1, 443, Protocol::kTcp, 100}};
  EXPECT_THROW(gateway.extract_rows(packets, 600.0), InvalidArgument);
}

// Flow-heavy traffic for `dev` over [0, windows · window_s): runs of one
// key in both directions, interleaved with other keys (TCP and UDP on the
// same ports, LAN peers, the router, another device's packets), idle gaps
// past the 120 s flow timeout, and a flood of 6,000 fresh keys and remotes
// inside window 1, half of them first seen downstream. Around every window
// boundary the device's only packets are one key's, 1 s either side, so a
// flow spans the boundary as the last packet before it and the first
// after. Key 7000/udp has gaps of exactly 120 s (one flow) and of 120 s +
// 1 ulp (a new flow). Times never decrease.
std::vector<Packet> flow_heavy_traffic(Rng& rng, std::uint32_t dev,
                                       double window_s, int windows) {
  const auto other = make_ip(10, 0, 0, 20);
  const auto router = make_ip(10, 0, 0, 1);
  const double end = window_s * windows;
  std::vector<Packet> out;
  const auto emit = [&](double t, std::uint32_t peer, std::uint16_t local,
                        std::uint16_t service, Protocol proto, bool up) {
    const auto size = static_cast<int>(rng.uniform_int(40, 1400));
    out.push_back(up ? Packet{t, dev, peer, local, service, proto, size}
                     : Packet{t, peer, dev, service, local, proto, size});
  };
  bool flooded = false;
  for (double t = 0.0;;) {
    if (!flooded && t >= 1.2 * window_s) {
      flooded = true;
      for (int i = 0; i < 6000; ++i) {
        t += 0.01;
        emit(t, make_ip(203, 0, 1 + i / 250, i % 250), 4000,
             static_cast<std::uint16_t>(1 + i), Protocol::kUdp,
             rng.bernoulli(0.5));
      }
    }
    t += rng.bernoulli(0.02) ? rng.uniform(120.0, 300.0)
                             : rng.uniform(0.0, 3.0);
    if (t >= end) break;
    const auto pick = rng.uniform_int(0, 11);
    const auto peer =
        pick < 8    ? make_ip(52, 20, 0, static_cast<int>(pick))
        : pick < 11 ? make_ip(10, 0, 0, static_cast<int>(pick + 3))
                    : router;
    const auto local = static_cast<std::uint16_t>(rng.uniform_int(40000, 40003));
    const std::uint16_t service = rng.bernoulli(0.5) ? 443 : 53;
    const auto proto = rng.bernoulli(0.5) ? Protocol::kUdp : Protocol::kTcp;
    const auto run = rng.uniform_int(1, 6);
    for (std::int64_t j = 0; j < run && t < end; ++j) {
      emit(t, peer, local, service, proto, rng.bernoulli(0.5));
      if (rng.bernoulli(0.1)) {
        out.push_back(Packet{t, other, peer, local, service, proto, 99});
      }
      t += rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5);
    }
  }
  // Clear the device's traffic around each boundary, then bridge it with
  // one key, a remote seen nowhere else.
  const auto bridge = make_ip(52, 20, 9, 9);
  std::erase_if(out, [&](const Packet& p) {
    const double k = std::round(p.timestamp_s / window_s);
    return k >= 1.0 && std::abs(p.timestamp_s - k * window_s) < 5.0 &&
           (p.src_ip == dev || p.dst_ip == dev);
  });
  for (int k = 1; k < windows; ++k) {
    emit(k * window_s - 1.0, bridge, 41000, 443, Protocol::kTcp, true);
    emit(k * window_s + 1.0, bridge, 41000, 443, Protocol::kTcp, false);
  }
  const auto timed = make_ip(52, 20, 8, 8);
  const double t0 = 2.0 * window_s + 10.0;
  const double t_exact = t0 + 120.0;
  const double t_past = std::nextafter(t_exact + 120.0, end);
  emit(t0, timed, 7000, 7000, Protocol::kUdp, true);
  emit(t_exact, timed, 7000, 7000, Protocol::kUdp, false);
  emit(t_past, timed, 7000, 7000, Protocol::kUdp, true);
  sort_by_time(out);
  return out;
}

TEST(WindowAccumulator, FlowAndRemoteCountsMatchReference) {
  const auto dev = make_ip(10, 0, 0, 10);
  const double window_s = 1000.0;
  const int windows = 4;
  const double duration_s = window_s * windows;
  // The timed key's gaps straddle the timeout as intended.
  const double t0 = 2.0 * window_s + 10.0;
  ASSERT_EQ((t0 + 120.0) - t0, 120.0);
  ASSERT_GT(std::nextafter(t0 + 240.0, duration_s) - (t0 + 120.0), 120.0);

  auto& registry = obs::MetricsRegistry::instance();
  auto& inserts = registry.counter("net.flow_table.flow_inserts");
  auto& evictions = registry.counter("net.flow_table.flow_evictions");
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(700 + seed);
    const auto packets = flow_heavy_traffic(rng, dev, window_s, windows);
    registry.reset_values_for_testing();
    obs::set_enabled_for_testing(true);
    const auto rows = windowed_features(packets, dev, duration_s, window_s,
                                        /*keep_idle_windows=*/true);
    const auto got_inserts = inserts.value();
    const auto got_evictions = evictions.value();
    registry.reset_values_for_testing();
    std::vector<std::vector<double>> want;
    for (int k = 0; k < windows; ++k) {
      want.push_back(extract_window_features(packets, dev, k * window_s,
                                             (k + 1) * window_s));
    }
    const auto want_inserts = inserts.value();
    const auto want_evictions = evictions.value();
    obs::set_enabled_for_testing(false);
    registry.reset_values_for_testing();

    const std::string what = "seed " + std::to_string(seed);
    ASSERT_EQ(rows.size(), want.size()) << what;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(bits(rows[k].features), bits(want[k]))
          << what << " window " << k;
    }
    EXPECT_GT(want[1][9], 6000.0) << what;   // distinct remotes
    EXPECT_GT(want[1][16], 6000.0) << what;  // flows
    EXPECT_EQ(got_inserts, want_inserts) << what;
    EXPECT_EQ(got_evictions, want_evictions) << what;
    EXPECT_GT(want_evictions, 0u) << what;
  }
}

// --- fingerprinting ------------------------------------------------------------------

TEST(Fingerprint, DatasetIsBalancedAcrossTypes) {
  Rng rng(9);
  FingerprintOptions options;
  options.instances_per_type = 2;
  options.duration_s = 3600.0;
  const auto data = build_fingerprint_dataset(options, rng);
  EXPECT_EQ(data.num_classes(), kNumDeviceTypes);
  EXPECT_EQ(data.width(), feature_names().size());
  std::vector<int> counts(static_cast<std::size_t>(kNumDeviceTypes), 0);
  for (int label : data.labels) ++counts[static_cast<std::size_t>(label)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Fingerprint, RoutedRowsMatchPerDeviceWholeCaptureScans) {
  // The dataset routes each packet to the devices it involves in one pass;
  // every device's rows, and every window counter, must equal its
  // `windowed_features` scan of the whole capture. 2.5 windows per hour
  // leave a partial window at the end.
  auto& registry = obs::MetricsRegistry::instance();
  const char* const counters[] = {
      "net.window_accumulator.packets_ingested",
      "net.window_accumulator.windows_emitted",
      "net.window_accumulator.idle_windows_dropped",
      "net.flow_table.flow_inserts", "net.flow_table.flow_evictions"};
  for (const double duration_s : {3600.0, 5400.0}) {
    for (const double window_s : {600.0, 1440.0}) {
      FingerprintOptions options;
      options.instances_per_type = 2;
      options.duration_s = duration_s;
      options.window_s = window_s;
      Rng rng(31);
      Rng replay(31);
      registry.reset_values_for_testing();
      obs::set_enabled_for_testing(true);
      const auto data = build_fingerprint_dataset(options, rng);
      std::vector<std::uint64_t> routed;
      for (const char* name : counters) {
        routed.push_back(registry.counter(name).value());
      }
      registry.reset_values_for_testing();

      const auto home = simulate_home_network(options.instances_per_type,
                                              options.duration_s, replay);
      ml::Dataset expected;
      for (const auto& device : home.devices) {
        for (auto& row : windowed_features(home.packets, device.ip,
                                           duration_s, window_s)) {
          expected.append(std::move(row.features),
                          static_cast<int>(device.type));
        }
      }
      std::vector<std::uint64_t> scanned;
      for (const char* name : counters) {
        scanned.push_back(registry.counter(name).value());
      }
      obs::set_enabled_for_testing(false);
      registry.reset_values_for_testing();

      const std::string what = "duration " + std::to_string(duration_s) +
                               " window " + std::to_string(window_s);
      EXPECT_GT(data.size(), 0u) << what;
      EXPECT_EQ(data.rows, expected.rows) << what;
      EXPECT_EQ(data.labels, expected.labels) << what;
      EXPECT_EQ(routed, scanned) << what;
      EXPECT_GT(scanned[0], 0u) << what;
    }
  }
}

/// The fingerprint set as it was built from a merged capture: the whole
/// home simulated and sorted into one capture, then each packet given to
/// the accumulators of its roster endpoints, src then dst.
ml::Dataset capture_path_dataset(const FingerprintOptions& options,
                                 Rng& rng) {
  const auto home = simulate_home_network(options.instances_per_type,
                                          options.duration_s, rng);
  DeviceSlots slots;
  std::vector<WindowAccumulator> accumulators;
  for (const auto& device : home.devices) {
    slots.add(device.ip);
    accumulators.emplace_back(device.ip, options.window_s);
  }
  for (const auto& p : home.packets) {
    const int src = slots[p.src_ip];
    const int dst = slots[p.dst_ip];
    if (src >= 0) accumulators[static_cast<std::size_t>(src)].add(p);
    if (dst >= 0 && dst != src) {
      accumulators[static_cast<std::size_t>(dst)].add(p);
    }
  }
  ml::Dataset data;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    for (auto& row : accumulators[d].finish(options.duration_s)) {
      data.append(std::move(row.features),
                  static_cast<int>(home.devices[d].type));
    }
  }
  return data;
}

// Each device windowed from its own stream and its peers' packets to it
// must give the capture path's rows bit for bit, and leave the Rng where
// the capture path leaves it.
TEST(Fingerprint, PerDeviceStreamsMatchCapturePath) {
  struct Case {
    int instances;
    double duration_s, window_s;
  };
  const Case cases[] = {{1, 3600.0, 600.0},
                        {2, 3 * 3600.0, 600.0},
                        {3, 1800.0, 120.0},
                        {2, 5000.0, 1440.0}};  // a partial last window
  for (const auto& c : cases) {
    for (const std::uint64_t seed : {3u, 17u}) {
      FingerprintOptions options;
      options.instances_per_type = c.instances;
      options.duration_s = c.duration_s;
      options.window_s = c.window_s;
      Rng rng(seed), oracle_rng(seed);
      const auto got = build_fingerprint_dataset(options, rng);
      const auto want = capture_path_dataset(options, oracle_rng);
      const std::string what = "instances " + std::to_string(c.instances) +
                               " duration " + std::to_string(c.duration_s) +
                               " window " + std::to_string(c.window_s) +
                               " seed " + std::to_string(seed);
      ASSERT_GT(want.size(), 0u) << what;
      ASSERT_EQ(got.size(), want.size()) << what;
      EXPECT_EQ(got.labels, want.labels) << what;
      for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << what;
        for (std::size_t f = 0; f < want.rows[r].size(); ++f) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rows[r][f]),
                    std::bit_cast<std::uint64_t>(want.rows[r][f]))
              << what << " row " << r << " feature " << f;
        }
      }
      EXPECT_EQ(rng.next(), oracle_rng.next()) << what;
    }
  }
}

TEST(Fingerprint, RandomForestIdentifiesDevices) {
  Rng rng(10);
  FingerprintOptions options;
  options.instances_per_type = 3;
  options.duration_s = 2 * 3600.0;
  auto data = build_fingerprint_dataset(options, rng);
  auto split = ml::train_test_split(data, 0.3, rng);
  ml::RandomForest forest;
  forest.fit(split.train);
  const auto pred = forest.predict_all(split.test);
  ml::ConfusionMatrix cm(pred, split.test.labels, kNumDeviceTypes);
  EXPECT_GT(cm.accuracy(), 0.85);
}

// --- anomaly detection ---------------------------------------------------------------

struct AnomalyScene {
  ml::Dataset clean;
  AnomalyDetector detector;
};

AnomalyScene trained_detector(std::uint64_t seed) {
  Rng rng(seed);
  FingerprintOptions options;
  options.instances_per_type = 3;
  options.duration_s = 2 * 3600.0;
  AnomalyScene scene{build_fingerprint_dataset(options, rng), {}};
  scene.detector.fit(scene.clean);
  return scene;
}

TEST(Anomaly, CleanWindowsScoreLow) {
  const auto scene = trained_detector(11);
  double max_clean = 0.0;
  for (std::size_t i = 0; i < scene.clean.size(); ++i) {
    max_clean = std::max(
        max_clean,
        scene.detector.score(scene.clean.rows[i], scene.clean.labels[i]));
  }
  EXPECT_LT(max_clean, 6.0);
}

TEST(Anomaly, GeneralizesToUnseenInstances) {
  const auto scene = trained_detector(11);
  Rng rng(99);
  FingerprintOptions options;
  options.instances_per_type = 2;
  options.duration_s = 2 * 3600.0;
  const auto fresh = build_fingerprint_dataset(options, rng);
  int over_threshold = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (scene.detector.score(fresh.rows[i], fresh.labels[i]) > 6.0) {
      ++over_threshold;
    }
  }
  // Fresh, clean device instances should almost never read as anomalous.
  EXPECT_LT(static_cast<double>(over_threshold) /
                static_cast<double>(fresh.size()),
            0.02);
}

TEST(Anomaly, InfectedWindowsScoreHigh) {
  auto scene = trained_detector(12);
  Rng rng(13);
  for (auto infection : {Infection::kScanner, Infection::kDdosBot,
                         Infection::kExfiltrator}) {
    // Exfiltration from a camera hides inside its own upload stream (a
    // documented limitation); score attacks on a quiet device class, plus
    // the loud attacks on the camera below.
    auto profile = make_device(DeviceType::kSmartPlug, 0, rng);
    profile.infection = infection;
    profile.infection_start_s = 0.0;
    const auto packets = simulate_device(profile, 1200.0, rng);
    const auto f = extract_window_features(packets, profile.ip, 0.0, 600.0);
    EXPECT_GT(
        scene.detector.score(f, static_cast<int>(DeviceType::kSmartPlug)),
        6.0)
        << static_cast<int>(infection);
  }
  for (auto infection : {Infection::kScanner, Infection::kDdosBot}) {
    auto profile = make_device(DeviceType::kCamera, 1, rng);
    profile.infection = infection;
    profile.infection_start_s = 0.0;
    const auto packets = simulate_device(profile, 1200.0, rng);
    const auto f = extract_window_features(packets, profile.ip, 0.0, 600.0);
    EXPECT_GT(scene.detector.score(f, static_cast<int>(DeviceType::kCamera)),
              6.0)
        << static_cast<int>(infection);
  }
}

TEST(Anomaly, RequiresFit) {
  AnomalyDetector detector;
  EXPECT_THROW(detector.score(std::vector<double>(16, 0.0), 0),
               InvalidArgument);
}

// --- gateway ----------------------------------------------------------------------

TEST(Gateway, QuarantinesInfectedDeviceOnly) {
  Rng rng(14);
  FingerprintOptions options;
  options.instances_per_type = 3;
  options.duration_s = 2 * 3600.0;
  auto data = build_fingerprint_dataset(options, rng);
  ml::RandomForest forest;
  forest.fit(data);
  AnomalyDetector detector;
  detector.fit(data);

  Rng home_rng(15);
  auto home = simulate_home_network(1, 2 * 3600.0, home_rng);
  // Infect the camera halfway through.
  auto infected = home.devices[0];
  infected.infection = Infection::kDdosBot;
  infected.infection_start_s = 3600.0;
  const auto extra = simulate_device(infected, 2 * 3600.0, home_rng);
  home.packets.insert(home.packets.end(), extra.begin(), extra.end());
  sort_by_time(home.packets);

  SmartGateway gateway(forest, detector, GatewayOptions{});
  for (const auto& device : home.devices) {
    gateway.register_device(device.ip, device.name);
  }
  const auto report = gateway.process(home.packets, 2 * 3600.0);

  int quarantined = 0;
  for (const auto& verdict : report.verdicts) {
    if (verdict.final_zone == Zone::kQuarantined) {
      ++quarantined;
      EXPECT_EQ(verdict.device, home.devices[0].name);
      EXPECT_GE(verdict.quarantined_at_s, 3600.0);
    }
  }
  EXPECT_EQ(quarantined, 1);
  EXPECT_GT(report.quarantine_packets_dropped, 0u);
}

TEST(Gateway, IdentifiesDeviceTypes) {
  Rng rng(16);
  FingerprintOptions options;
  options.instances_per_type = 3;
  options.duration_s = 2 * 3600.0;
  auto data = build_fingerprint_dataset(options, rng);
  ml::RandomForest forest;
  forest.fit(data);
  AnomalyDetector detector;
  detector.fit(data);

  Rng home_rng(17);
  const auto home = simulate_home_network(1, 3600.0, home_rng);
  SmartGateway gateway(forest, detector, GatewayOptions{});
  for (const auto& device : home.devices) {
    gateway.register_device(device.ip, device.name);
  }
  const auto report = gateway.process(home.packets, 3600.0);
  int correct = 0;
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    if (report.verdicts[i].predicted_type ==
        static_cast<int>(home.devices[i].type)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, kNumDeviceTypes - 2);
}

TEST(Gateway, RejectsWanDeviceRegistration) {
  Rng rng(18);
  FingerprintOptions options;
  options.instances_per_type = 2;
  options.duration_s = 3600.0;
  auto data = build_fingerprint_dataset(options, rng);
  ml::RandomForest forest;
  forest.fit(data);
  AnomalyDetector detector;
  detector.fit(data);
  SmartGateway gateway(forest, detector, GatewayOptions{});
  EXPECT_THROW(gateway.register_device(make_ip(8, 8, 8, 8), "rogue"),
               InvalidArgument);
}

// --- gateway policy ---------------------------------------------------------
//
// These tests isolate the quarantine state machine and counter derivation
// from real model behaviour: a classifier stub always predicts type 0, and
// the detector is fitted on two identical hand-built "normal" windows, so a
// replica of that window scores ~0 while anything else blows the envelope.

/// Predicts a fixed class regardless of input.
class FixedClassifier : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  int predict(std::span<const double>) const override { return 0; }
  std::string name() const override { return "fixed"; }
};

/// 40 evenly paced UDP packets to the cloud: the device's "normal" window.
void add_normal_window(std::vector<Packet>& packets, double t0,
                       std::uint32_t dev) {
  for (int i = 0; i < 40; ++i) {
    packets.push_back(Packet{t0 + 0.1 + 0.2 * i, dev, make_ip(52, 20, 0, 1),
                             40000, 443, Protocol::kUdp, 100});
  }
}

/// A port-scan-shaped window: `count` large TCP packets to many distinct
/// remotes and ports, far outside the trained envelope.
void add_attack_window(std::vector<Packet>& packets, double t0,
                       std::uint32_t dev, int count = 200) {
  for (int i = 0; i < count; ++i) {
    packets.push_back(
        Packet{t0 + 0.01 + 8.0 * i / count, dev, make_ip(52, 20, 0, 2 + i % 200),
               40000, static_cast<std::uint16_t>(1 + i), Protocol::kTcp, 1000});
  }
}

struct PolicyRig {
  FixedClassifier classifier;
  AnomalyDetector detector;
  GatewayOptions options;
};

PolicyRig make_policy_rig() {
  PolicyRig rig;
  rig.options.window_s = 10.0;
  rig.options.windows_to_quarantine = 2;
  rig.options.min_packets_to_score = 30;
  const auto dev = make_ip(10, 0, 0, 10);
  std::vector<Packet> train;
  add_normal_window(train, 0.0, dev);
  add_normal_window(train, 10.0, dev);
  sort_by_time(train);
  ml::Dataset clean;
  clean.append(extract_window_features(train, dev, 0.0, 10.0), 0);
  clean.append(extract_window_features(train, dev, 10.0, 20.0), 0);
  rig.detector.fit(clean);
  return rig;
}

TEST(GatewayPolicy, ShortCaptureReturnsEmptyReport) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  packets.push_back(
      Packet{1.0, dev, make_ip(10, 0, 0, 99), 1000, 80, Protocol::kTcp, 100});
  packets.push_back(
      Packet{2.0, dev, make_ip(52, 20, 0, 1), 1000, 443, Protocol::kUdp, 100});
  // Shorter than one window: not an error — a default verdict per device,
  // no events, and least privilege still enforced.
  const auto report = gateway.process(packets, 5.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].final_zone, Zone::kIot);
  EXPECT_EQ(report.verdicts[0].predicted_type, -1);
  EXPECT_TRUE(report.events.empty());
  EXPECT_EQ(report.lateral_packets_blocked, 1u);
  EXPECT_EQ(report.quarantine_packets_dropped, 0u);
}

TEST(GatewayPolicy, QuarantineExemptsUdpDnsOnly) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto router = rig.options.router_ip;
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  add_attack_window(packets, 0.0, dev);
  add_attack_window(packets, 10.0, dev);  // quarantined at t = 20
  packets.push_back(Packet{25.0, dev, router, 5000, 53, Protocol::kUdp, 80});
  packets.push_back(Packet{26.0, dev, router, 5000, 53, Protocol::kTcp, 80});
  packets.push_back(
      Packet{27.0, dev, make_ip(52, 20, 0, 1), 5000, 443, Protocol::kUdp, 80});
  sort_by_time(packets);
  const auto report = gateway.process(packets, 40.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].final_zone, Zone::kQuarantined);
  EXPECT_EQ(report.verdicts[0].quarantined_at_s, 20.0);
  // UDP:53 is the only carve-out; TCP:53 (DNS tunnels, zone transfers) and
  // everything else is dropped.
  EXPECT_EQ(report.quarantine_packets_dropped, 2u);
  EXPECT_EQ(report.lateral_packets_blocked, 0u);
}

TEST(GatewayPolicy, CountersAreMutuallyExclusive) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto stranger = make_ip(10, 0, 0, 99);
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  add_attack_window(packets, 0.0, dev);
  add_attack_window(packets, 10.0, dev);  // quarantined at t = 20
  // Lateral before quarantine: blocked by least privilege.
  packets.push_back(Packet{5.0, dev, stranger, 5000, 80, Protocol::kTcp, 80});
  // Lateral after quarantine: dropped by quarantine, NOT double-counted.
  packets.push_back(Packet{25.0, dev, stranger, 5000, 80, Protocol::kTcp, 80});
  sort_by_time(packets);
  const auto report = gateway.process(packets, 40.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].final_zone, Zone::kQuarantined);
  EXPECT_EQ(report.lateral_packets_blocked, 1u);
  EXPECT_EQ(report.quarantine_packets_dropped, 1u);
}

TEST(GatewayPolicy, BoundaryPacketAtQuarantineInstantIsDropped) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  add_attack_window(packets, 0.0, dev);
  add_attack_window(packets, 10.0, dev);  // quarantined at t = 20
  packets.push_back(
      Packet{20.0, dev, make_ip(52, 20, 0, 1), 5000, 443, Protocol::kUdp, 80});
  sort_by_time(packets);
  const auto report = gateway.process(packets, 40.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].quarantined_at_s, 20.0);
  // `quarantined_at` is inclusive: the packet at exactly t = 20 is dropped.
  EXPECT_EQ(report.quarantine_packets_dropped, 1u);
}

TEST(GatewayPolicy, RouterIpIsConfigurable) {
  auto rig = make_policy_rig();
  rig.options.router_ip = make_ip(10, 0, 0, 254);
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  gateway.register_device(dev, "dev");
  EXPECT_THROW(gateway.register_device(make_ip(10, 0, 0, 254), "router"),
               InvalidArgument);
  std::vector<Packet> packets;
  // To the configured router: never lateral. To the *old* default router
  // address (now just an unregistered LAN host): lateral.
  packets.push_back(Packet{1.0, dev, make_ip(10, 0, 0, 254), 5000, 53,
                           Protocol::kUdp, 80});
  packets.push_back(
      Packet{2.0, dev, make_ip(10, 0, 0, 1), 5000, 80, Protocol::kTcp, 80});
  const auto report = gateway.process(packets, 5.0);
  EXPECT_EQ(report.lateral_packets_blocked, 1u);
}

TEST(GatewayPolicy, LateralAppliesOnlyToUnregisteredPeers) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto peer = make_ip(10, 0, 0, 11);
  gateway.register_device(dev, "dev");
  gateway.register_device(peer, "peer");
  std::vector<Packet> packets;
  packets.push_back(Packet{1.0, dev, peer, 5000, 80, Protocol::kTcp, 80});
  packets.push_back(Packet{2.0, dev, make_ip(10, 0, 0, 99), 5000, 80,
                           Protocol::kTcp, 80});
  packets.push_back(Packet{3.0, dev, rig.options.router_ip, 5000, 53,
                           Protocol::kUdp, 80});
  packets.push_back(Packet{4.0, peer, make_ip(10, 0, 0, 98), 5000, 80,
                           Protocol::kTcp, 80});
  const auto report = gateway.process(packets, 5.0);
  // dev -> registered peer and dev -> router pass; the two packets to
  // unregistered LAN hosts are blocked.
  EXPECT_EQ(report.lateral_packets_blocked, 2u);
}

// Replay walks `window_count` windows and extraction emits a row for each
// full window; both use `full_window_count`, so where duration / window
// rounds across an integer (8.6 / 0.2 rounds down to 42.99..., 3.4 / 0.1
// up to 34.0) the last row is still voted and scored, and no row past it.
TEST(GatewayPolicy, ReplayScoresEveryExtractedWindow) {
  struct Case {
    double window_s, duration_s;
    std::size_t windows;
  };
  auto& registry = obs::MetricsRegistry::instance();
  auto& scored = registry.counter("net.gateway.windows_scored");
  for (const Case c : {Case{0.2, 8.6, 43}, Case{0.1, 3.4, 33}}) {
    auto rig = make_policy_rig();
    rig.options.window_s = c.window_s;
    rig.options.min_packets_to_score = 1;
    SmartGateway gateway(rig.classifier, rig.detector, rig.options);
    const auto dev = make_ip(10, 0, 0, 10);
    gateway.register_device(dev, "dev");
    std::vector<Packet> packets;
    for (std::size_t k = 0; k <= c.windows; ++k) {
      packets.push_back(Packet{(static_cast<double>(k) + 0.5) * c.window_s,
                               dev, make_ip(52, 20, 0, 1), 40000, 443,
                               Protocol::kUdp, 100});
    }
    EXPECT_EQ(full_window_count(c.duration_s, c.window_s), c.windows);
    EXPECT_EQ(gateway.window_count(c.duration_s),
              static_cast<int>(c.windows));
    const auto rows = gateway.extract_rows(packets, c.duration_s);
    ASSERT_EQ(rows.at(0).rows.size(), c.windows);
    registry.reset_values_for_testing();
    obs::set_enabled_for_testing(true);
    const auto report = gateway.process(packets, c.duration_s);
    const auto windows_scored = scored.value();
    obs::set_enabled_for_testing(false);
    registry.reset_values_for_testing();
    EXPECT_EQ(windows_scored, c.windows) << c.duration_s;
    EXPECT_EQ(report.verdicts.at(0).predicted_type, 0);
  }
}

TEST(Features, FullWindowCountIsConstantTime) {
  // The per-window loop would take minutes here.
  EXPECT_EQ(full_window_count(1e12, 1.0), std::size_t{1'000'000'000'000});
  EXPECT_EQ(full_window_count(1e11, 0.1), std::size_t{1'000'000'000'000});
  EXPECT_EQ(full_window_count(0.5, 1.0), 0u);
  EXPECT_EQ(full_window_count(-3.0, 1.0), 0u);
  EXPECT_THROW((void)full_window_count(1.0, 0.0), InvalidArgument);
  EXPECT_THROW((void)full_window_count(std::nan(""), 1.0), InvalidArgument);
  EXPECT_THROW((void)full_window_count(1e300, 1e-300), InvalidArgument);
  // Same count as the loop it replaces, on durations that land on, just
  // below and just above window multiples.
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const double window_s =
        rng.bernoulli(0.5) ? rng.uniform(1e-3, 10.0)
                           : static_cast<double>(rng.uniform_int(1, 100)) / 10.0;
    double duration_s =
        static_cast<double>(rng.uniform_int(1, 500)) * window_s;
    if (rng.bernoulli(0.3)) duration_s = std::nextafter(duration_s, 0.0);
    if (rng.bernoulli(0.3)) duration_s = std::nextafter(duration_s, 1e9);
    std::size_t loop = 0;
    while (static_cast<double>(loop + 1) * window_s <= duration_s) ++loop;
    ASSERT_EQ(full_window_count(duration_s, window_s), loop)
        << duration_s << " / " << window_s;
  }
}

// The reference ignores packets before t = 0, and so does extraction: a
// sorted capture may start before the first window.
TEST(GatewayPolicy, NegativeTimestampsAreIgnored) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  gateway.register_device(dev, "dev");
  const std::vector<Packet> packets{
      {-5.0, dev, cloud, 40000, 443, Protocol::kTcp, 100},
      {5.0, dev, cloud, 40000, 443, Protocol::kTcp, 300},
  };
  const auto want = extract_window_features(packets, dev, 0.0, 10.0);
  const auto rows = windowed_features(packets, dev, 10.0, 10.0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].features, want);
  const auto device_rows = gateway.extract_rows(packets, 10.0);
  ASSERT_EQ(device_rows.at(0).rows.size(), 1u);
  EXPECT_EQ(device_rows[0].rows[0].features, want);
  EXPECT_EQ(want[kFeaturePktRateUp], 0.1);  // only the packet at 5 s
}

TEST(GatewayPolicy, SparseWindowsAreNeverScored) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  // Attack-shaped traffic, but below min_packets_to_score in every window:
  // classified, never anomaly-scored, never quarantined.
  for (int w = 0; w < 4; ++w) {
    add_attack_window(packets, 10.0 * w, dev, 20);
  }
  sort_by_time(packets);
  const auto report = gateway.process(packets, 40.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].final_zone, Zone::kIot);
  EXPECT_EQ(report.verdicts[0].predicted_type, 0);
  EXPECT_EQ(report.verdicts[0].max_anomaly_score, 0.0);
  EXPECT_TRUE(report.events.empty());
}

TEST(GatewayPolicy, CleanWindowResetsQuarantineDebounce) {
  auto rig = make_policy_rig();
  SmartGateway gateway(rig.classifier, rig.detector, rig.options);
  const auto dev = make_ip(10, 0, 0, 10);
  gateway.register_device(dev, "dev");
  std::vector<Packet> packets;
  add_attack_window(packets, 0.0, dev);
  add_normal_window(packets, 10.0, dev);  // scored clean: debounce resets
  add_attack_window(packets, 20.0, dev);
  add_attack_window(packets, 30.0, dev);
  sort_by_time(packets);
  const auto report = gateway.process(packets, 40.0);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].final_zone, Zone::kQuarantined);
  // Quarantine lands only after the second consecutive run of anomalies,
  // at the end of window 3 — not at t = 20.
  EXPECT_EQ(report.verdicts[0].quarantined_at_s, 40.0);
}

TEST(Features, PolicyIndicesMatchFeatureNames) {
  EXPECT_NO_THROW(check_feature_layout());
  EXPECT_EQ(feature_names()[kFeaturePktRateUp], "pkt_rate_up");
  EXPECT_EQ(feature_names()[kFeaturePktRateDown], "pkt_rate_down");
}

}  // namespace
}  // namespace pmiot::net
