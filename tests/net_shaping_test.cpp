// Tests for the traffic-reshaping defenses (net/shaping.h), the
// defense-vs-attack arena (net/arena.h), and the campaign-side network
// axis (campaign/net_axis.h): the θ=0 passthrough contract, bitwise
// determinism across pool widths, streaming-extractor parity on shaped
// captures (window-boundary exclusivity included), and the per-defense
// structural guarantees (full-intensity quantization, single VPN tuple).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "campaign/net_axis.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/arena.h"
#include "net/device.h"
#include "net/features.h"
#include "net/shaping.h"
#include "net/window_accumulator.h"
#include "reference/window_features.h"

namespace pmiot::net {
namespace {

using reference::extract_window_features;

bool same_packets(const std::vector<Packet>& a, const std::vector<Packet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.timestamp_s != y.timestamp_s || x.src_ip != y.src_ip ||
        x.dst_ip != y.dst_ip || x.src_port != y.src_port ||
        x.dst_port != y.dst_port || x.protocol != y.protocol ||
        x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  return true;
}

HomeNetwork small_home(std::uint64_t seed = 11, double duration_s = 900.0) {
  Rng rng(seed);
  return simulate_home_network(1, duration_s, rng);
}

// --- TrafficDefense contract ------------------------------------------------

TEST(Shaping, IntensityZeroIsBitwisePassthrough) {
  const auto home = small_home();
  for (const auto& name : traffic_defense_names()) {
    const auto defense = make_traffic_defense(name);
    Rng rng(5);
    const auto shaped = defense->apply(home, 900.0, 0.0, rng);
    EXPECT_TRUE(same_packets(shaped.packets, home.packets)) << name;
    EXPECT_EQ(shaped.added_bytes, 0.0) << name;
    EXPECT_EQ(shaped.added_latency_s, 0.0) << name;
    EXPECT_EQ(shaped.delayed_packets, 0u) << name;
  }
}

TEST(Shaping, SameSeedSameOutput) {
  const auto home = small_home();
  for (const auto& name : traffic_defense_names()) {
    const auto defense = make_traffic_defense(name);
    Rng a(99), b(99);
    const auto first = defense->apply(home, 900.0, 0.6, a);
    const auto second = defense->apply(home, 900.0, 0.6, b);
    EXPECT_TRUE(same_packets(first.packets, second.packets)) << name;
    EXPECT_EQ(first.added_bytes, second.added_bytes) << name;
    EXPECT_EQ(first.added_latency_s, second.added_latency_s) << name;
  }
}

TEST(Shaping, OutputIsTimeSorted) {
  const auto home = small_home();
  for (const auto& name : traffic_defense_names()) {
    const auto defense = make_traffic_defense(name);
    Rng rng(7);
    const auto shaped = defense->apply(home, 900.0, 1.0, rng);
    for (std::size_t i = 1; i < shaped.packets.size(); ++i) {
      ASSERT_LE(shaped.packets[i - 1].timestamp_s,
                shaped.packets[i].timestamp_s)
          << name;
    }
  }
}

TEST(Shaping, RegistryRejectsUnknownName) {
  EXPECT_THROW(make_traffic_defense("warp-drive"), InvalidArgument);
  EXPECT_EQ(traffic_defense_names().size(), 4u);
}

TEST(Shaping, ConstantRateFullIntensityQuantizesEverySize) {
  const auto home = small_home();
  ConstantRatePadding defense;
  Rng rng(13);
  const auto shaped = defense.apply(home, 900.0, 1.0, rng);
  EXPECT_GT(shaped.added_bytes, 0.0);
  for (const auto& p : wan_view(shaped.packets)) {
    ASSERT_GT(p.size_bytes, 0);
    ASSERT_EQ(p.size_bytes % 1400, 0)
        << "unquantized wire size " << p.size_bytes;
  }
}

TEST(Shaping, ConstantRateBillsLatencyOnDelayedPackets) {
  const auto home = small_home();
  ConstantRatePadding defense;
  Rng rng(13);
  const auto shaped = defense.apply(home, 900.0, 0.8, rng);
  EXPECT_GT(shaped.delayed_packets, 0u);
  EXPECT_GT(shaped.added_latency_s, 0.0);
  EXPECT_GT(shaped.mean_added_latency_s(), 0.0);
}

TEST(Shaping, CoverTrafficOnlyAddsPackets) {
  const auto home = small_home();
  StochasticCoverTraffic defense;
  Rng rng(17);
  const auto shaped = defense.apply(home, 900.0, 1.0, rng);
  EXPECT_GT(shaped.packets.size(), home.packets.size());
  EXPECT_GT(shaped.added_bytes, 0.0);
  EXPECT_EQ(shaped.added_latency_s, 0.0);  // never touches real packets
  // Every original packet survives verbatim (cover is a superset).
  std::multiset<double> original, kept;
  for (const auto& p : home.packets) original.insert(p.timestamp_s);
  for (const auto& p : shaped.packets) kept.insert(p.timestamp_s);
  for (const auto& ts : original) ASSERT_EQ(kept.count(ts) >= 1, true);
}

TEST(Shaping, VpnFullIntensityCollapsesToOneTuple) {
  const auto home = small_home();
  VpnAggregation defense;
  Rng rng(19);
  const auto shaped = defense.apply(home, 900.0, 1.0, rng);
  const auto wan = wan_view(shaped.packets);
  ASSERT_FALSE(wan.empty());
  const auto router = make_ip(10, 0, 0, 1);
  const auto concentrator = make_ip(198, 18, 0, 1);
  for (const auto& p : wan) {
    const bool up = p.src_ip == router && p.dst_ip == concentrator;
    const bool down = p.src_ip == concentrator && p.dst_ip == router;
    ASSERT_TRUE(up || down);
    ASSERT_EQ(p.src_port, 4500);
    ASSERT_EQ(p.dst_port, 4500);
    ASSERT_EQ(p.protocol, Protocol::kUdp);
    ASSERT_EQ(p.size_bytes % 16, 0);  // ESP-padded
  }
  EXPECT_GT(shaped.added_bytes, 0.0);  // encapsulation overhead
}

TEST(Shaping, DecoyIntensityScalesAddedTraffic) {
  const auto home = small_home();
  DecoyFlows defense;
  Rng low_rng(23), high_rng(23);
  const auto low = defense.apply(home, 900.0, 0.2, low_rng);
  const auto high = defense.apply(home, 900.0, 1.0, high_rng);
  EXPECT_GT(high.added_bytes, low.added_bytes);
  EXPECT_GT(low.added_bytes, 0.0);
}

// --- streaming parity on shaped captures ------------------------------------

TEST(Shaping, ShapedCapturesKeepAccumulatorParity) {
  const auto home = small_home(29, 1200.0);
  const double window_s = 300.0;
  for (const auto& name : traffic_defense_names()) {
    const auto defense = make_traffic_defense(name);
    Rng rng(31);
    const auto shaped = defense->apply(home, 1200.0, 0.7, rng);
    const auto wan = wan_view(shaped.packets);
    for (const auto& device : home.devices) {
      const auto rows = windowed_features(wan, device.ip, 1200.0, window_s,
                                          /*keep_idle_windows=*/true);
      ASSERT_EQ(rows.size(), 4u) << name;
      for (const auto& row : rows) {
        const double t0 = static_cast<double>(row.window_index) * window_s;
        EXPECT_EQ(row.features, extract_window_features(wan, device.ip, t0,
                                                        t0 + window_s))
            << name << " device " << device.name << " window "
            << row.window_index;
      }
    }
  }
}

TEST(Shaping, WindowBoundaryPacketsStayExclusive) {
  // A padding packet landing exactly on a window boundary t1 belongs to the
  // *next* window in both extraction paths ([t0, t1) windows).
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<Packet> packets{
      {1.0, dev, cloud, 40000, 443, Protocol::kTcp, 1400},
      {300.0, dev, cloud, 40000, 443, Protocol::kTcp, 1400},  // == t1
      {301.0, dev, cloud, 40000, 443, Protocol::kTcp, 1400},
  };
  const auto window0 = extract_window_features(packets, dev, 0.0, 300.0);
  EXPECT_DOUBLE_EQ(window0[kFeaturePktRateUp] * 300.0, 1.0);
  const auto window1 = extract_window_features(packets, dev, 300.0, 600.0);
  EXPECT_DOUBLE_EQ(window1[kFeaturePktRateUp] * 300.0, 2.0);

  const auto rows = windowed_features(packets, dev, 600.0, 300.0,
                                      /*keep_idle_windows=*/true);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].features, window0);
  EXPECT_EQ(rows[1].features, window1);
}

// --- recovery features ------------------------------------------------------

TEST(Arena, RecoveryFeaturesSeePeriodicStructure) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<Packet> packets;
  for (int i = 0; i < 30; ++i) {
    packets.push_back(Packet{static_cast<double>(i), dev, cloud, 40000, 443,
                             Protocol::kTcp, 1400});
  }
  const auto f = extract_recovery_features(packets, dev, 0.0, 30.0);
  ASSERT_EQ(f.size(), recovery_feature_names().size());
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // every IAT in the modal (1 s) bin
  EXPECT_DOUBLE_EQ(f[1], 0.0);  // no sub-modal bursts
  EXPECT_DOUBLE_EQ(f[2], 1.0);  // 1 packet/s fine burst rate
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // one wire size
}

TEST(Arena, RecoveryFeaturesFlagQueueBursts) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<Packet> packets;
  for (int i = 0; i < 20; ++i) {
    packets.push_back(Packet{static_cast<double>(i), dev, cloud, 40000, 443,
                             Protocol::kTcp, 1400});
  }
  // A shaper-overflow burst: 5 packets 10 ms apart inside one gap.
  for (int i = 0; i < 5; ++i) {
    packets.push_back(Packet{20.5 + 0.01 * i, dev, cloud, 40000, 443,
                             Protocol::kTcp, 700});
  }
  sort_by_time(packets);
  const auto f = extract_recovery_features(packets, dev, 0.0, 30.0);
  EXPECT_GT(f[1], 0.0);   // sub-modal IATs present
  EXPECT_GT(f[2], 1.0);   // burst rate above the 1 s cadence
  EXPECT_LT(f[3], 1.0);   // second wire size dilutes the modal fraction
}

TEST(Arena, RecoveryFeaturesEmptyWindowIsZero) {
  const auto f = extract_recovery_features({}, make_ip(10, 0, 0, 10), 0.0,
                                           300.0);
  EXPECT_EQ(f, std::vector<double>(recovery_feature_names().size(), 0.0));
}

// --- the arena --------------------------------------------------------------

ArenaOptions tiny_arena() {
  ArenaOptions options;
  options.train_instances_per_type = 1;
  options.test_instances_per_type = 1;
  options.duration_s = 600.0;
  options.window_s = 300.0;
  options.defenses = {"constant-rate", "vpn"};
  options.intensities = {0.0, 1.0};
  return options;
}

TEST(Arena, BitwiseIdenticalAcrossPoolWidths) {
  const auto options = tiny_arena();
  const auto base = run_arena(options);
  ASSERT_EQ(base.cells.size(), 4u);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride override_pool(pool);
    EXPECT_EQ(describe_divergence(base, run_arena(options)), "")
        << "pool width " << width;
  }
}

TEST(Arena, CellsCarryTheKnobReadout) {
  const auto result = run_arena(tiny_arena());
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.attacks.size(), fingerprint_attacks().size());
    if (cell.intensity == 0.0) {
      EXPECT_EQ(cell.added_bytes_fraction, 0.0) << cell.defense;
      EXPECT_EQ(cell.mean_added_latency_s, 0.0) << cell.defense;
    }
    for (const auto& score : cell.attacks) {
      EXPECT_GE(score.mcc, -1.0);
      EXPECT_LE(score.mcc, 1.0);
      EXPECT_GE(score.accuracy, 0.0);
      EXPECT_LE(score.accuracy, 1.0);
    }
  }
}

TEST(Arena, AttackRegistry) {
  EXPECT_EQ(make_fingerprint_attack("adaptive-knn").backend,
            SupervisedFingerprintAttack::Backend::kKnn);
  EXPECT_TRUE(make_fingerprint_attack("adaptive-forest+recovery").recovery);
  EXPECT_FALSE(make_fingerprint_attack("naive-forest").adaptive);
  EXPECT_THROW(make_fingerprint_attack("psychic"), InvalidArgument);
}

TEST(Arena, RejectsBadOptions) {
  auto options = tiny_arena();
  options.intensities = {1.5};
  EXPECT_THROW(run_arena(options), InvalidArgument);
  options = tiny_arena();
  options.window_s = 0.0;
  EXPECT_THROW(run_arena(options), InvalidArgument);
  options = tiny_arena();
  options.defenses = {"warp-drive"};
  EXPECT_THROW(run_arena(options), InvalidArgument);
}

// --- campaign net axis ------------------------------------------------------

TEST(NetAxis, ConfigRoundTripsCanonically) {
  campaign::NetArenaConfig config;
  config.defenses = {"vpn", "constant-rate"};
  config.intensities = {0.0, 0.125, 1.0};
  config.duration_s = 1234.5;
  config.base_seed = 99;
  const auto text = campaign::canonical_net_text(config);
  const auto reparsed = campaign::parse_net_config(text);
  EXPECT_EQ(campaign::canonical_net_text(reparsed), text);
  EXPECT_EQ(campaign::net_config_hash(reparsed),
            campaign::net_config_hash(config));
}

TEST(NetAxis, ParserRejectsBadInput) {
  EXPECT_THROW(campaign::parse_net_config("unknown_key = 1"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("intensities = 2"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("window_s = 0"), InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("duration_s = nope"),
               InvalidArgument);
}

TEST(NetAxis, FrontierCsvIsByteStable) {
  campaign::NetArenaConfig config;
  config.defenses = {"constant-rate", "vpn"};
  config.intensities = {0.0, 1.0};
  config.train_instances_per_type = 1;
  config.test_instances_per_type = 1;
  config.duration_s = 600.0;
  config.window_s = 300.0;
  const auto result = net::run_arena(campaign::to_arena_options(config));
  std::ostringstream a, b;
  campaign::write_net_frontier_csv(a, config, result);
  campaign::write_net_frontier_csv(b, config, result);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("defense,intensity,"), std::string::npos);
  // One header comment + one column header + one line per cell.
  std::size_t lines = 0;
  for (char c : a.str()) lines += c == '\n';
  EXPECT_EQ(lines, 2u + result.cells.size());
}

}  // namespace
}  // namespace pmiot::net
