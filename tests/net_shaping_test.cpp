// Tests for the traffic-reshaping defenses (net/shaping.h), the
// defense-vs-attack arena (net/arena.h), and the campaign-side network
// axis (campaign/net_axis.h): the θ=0 passthrough contract, bitwise
// determinism across pool widths, streaming-extractor parity on shaped
// captures (window-boundary exclusivity included), streaming recovery
// parity and tail-merge shaping order on randomized captures, and the
// per-defense structural guarantees (full-intensity quantization, single
// VPN tuple).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "campaign/config_text.h"
#include "campaign/net_axis.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/arena.h"
#include "net/device.h"
#include "net/features.h"
#include "net/shaping.h"
#include "net/window_accumulator.h"
#include "obs/metrics.h"
#include "reference/recovery_features.h"
#include "reference/shaping_oracle.h"
#include "reference/window_features.h"

namespace pmiot::net {
namespace {

using reference::extract_window_features;

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
    EXPECT_TRUE(shaped.packets == home.packets) << name;
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
    EXPECT_TRUE(first.packets == second.packets) << name;
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

/// A time-sorted capture built to stress the streaming recovery path:
/// packets before 0 and past the last full window, packets exactly on
/// k·w and k·w + w (which rounding can put in two windows, or in none),
/// runs of equal timestamps, one idle window, a 10 ms time grid that
/// makes IAT-bin and wire-size ties common, sizes outside [0, 65536), and
/// other devices' traffic interleaved.
std::vector<Packet> stress_capture(Rng& rng, std::uint32_t dev,
                                   double window_s, std::size_t num_windows,
                                   double duration_s, std::size_t n) {
  const auto other = make_ip(10, 0, 0, 11);
  const auto cloud = make_ip(52, 20, 0, 1);
  std::vector<double> times;
  for (std::size_t i = 0; i < n; ++i) {
    const auto kind = rng.uniform_int(0, 9);
    if (kind == 0 && !times.empty()) {
      times.push_back(times.back());  // a tie run
    } else if (kind <= 2) {
      const auto k = static_cast<double>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_windows)));
      times.push_back(rng.bernoulli(0.5) ? k * window_s
                                         : k * window_s + window_s);
    } else if (kind <= 5) {
      times.push_back(
          std::round(rng.uniform(-window_s, duration_s + window_s) * 100.0) /
          100.0);
    } else {
      times.push_back(rng.uniform(-window_s, duration_s + window_s));
    }
  }
  const auto idle = static_cast<double>(
      rng.uniform_int(0, static_cast<std::int64_t>(num_windows) - 1));
  std::erase_if(times, [&](double t) {
    return t >= idle * window_s && t < idle * window_s + window_s;
  });

  static constexpr int kSizes[] = {-7, 0, 60, 1400, 65535, 65536, 90000};
  std::vector<Packet> packets;
  for (const double t : times) {
    const auto owner = rng.bernoulli(0.85) ? dev : other;
    int size = kSizes[rng.uniform_int(0, 6)];
    if (rng.bernoulli(0.3)) {
      size = static_cast<int>(rng.uniform_int(-100, 70000));
    }
    packets.push_back(rng.bernoulli(0.5)
                          ? Packet{t, owner, cloud, 40000, 443,
                                   Protocol::kTcp, size}
                          : Packet{t, cloud, owner, 443, 40000,
                                   Protocol::kUdp, size});
  }
  sort_by_time(packets);
  return packets;
}

TEST(Arena, StreamingRecoveryMatchesReferenceOnRandomCaptures) {
  const auto dev = make_ip(10, 0, 0, 10);
  struct Case {
    double window_s;
    std::size_t num_windows;
    std::size_t packets;
  };
  // 7.3 s windows overlap or gap by an ulp from k = 6 on; 700.7 s windows
  // with sparse traffic put IAT bins past the dense scratch (>= 655.36 s).
  const Case cases[] = {{7.3, 40, 400}, {700.7, 16, 40}, {300.0, 4, 2000},
                        {0.3, 30, 300}};
  Rng rng(97);
  std::size_t windows_checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto& c = cases[trial % 4];
    const double duration_s =
        static_cast<double>(c.num_windows) * c.window_s +
        rng.uniform(0.0, 0.9) * c.window_s;
    const auto packets = stress_capture(rng, dev, c.window_s, c.num_windows,
                                        duration_s, c.packets);
    const auto rows =
        windowed_recovery_features(packets, dev, duration_s, c.window_s);
    std::size_t full = 0;
    while (static_cast<double>(full + 1) * c.window_s <= duration_s) ++full;
    ASSERT_EQ(rows.size(), full) << "trial " << trial;
    for (const auto& row : rows) {
      const double t0 = static_cast<double>(row.window_index) * c.window_s;
      const double t1 = t0 + c.window_s;
      const auto expected =
          reference::extract_recovery_features(packets, dev, t0, t1);
      EXPECT_EQ(row.features, expected)
          << "trial " << trial << " window " << row.window_index;
      EXPECT_EQ(extract_recovery_features(packets, dev, t0, t1), expected)
          << "trial " << trial << " window " << row.window_index;
      ++windows_checked;
    }
  }
  EXPECT_GT(windows_checked, 400u);
}

TEST(Arena, RecoveryFeaturesRejectOutOfOrderPackets) {
  const auto dev = make_ip(10, 0, 0, 10);
  const auto cloud = make_ip(52, 20, 0, 1);
  const std::vector<Packet> packets{
      {5.0, dev, cloud, 40000, 443, Protocol::kTcp, 100},
      {4.0, dev, cloud, 40000, 443, Protocol::kTcp, 100},
  };
  try {
    (void)extract_recovery_features(packets, dev, 0.0, 10.0);
    FAIL() << "out-of-order packets accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "packets must arrive in timestamp order"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)windowed_recovery_features(packets, dev, 10.0, 5.0),
               InvalidArgument);
  EXPECT_THROW((void)windowed_recovery_features(packets, dev, 4.0, 5.0),
               InvalidArgument);  // no full window
}

// --- tail-merge shaping order -----------------------------------------------

// --- hostile input ----------------------------------------------------------

TEST(Shaping, RejectsHostileInputAboveIntensityZero) {
  const auto home = small_home();
  auto unsorted = home;
  unsorted.packets.push_back(unsorted.packets.front());  // back in time
  auto not_a_number = home;
  not_a_number.packets[3].timestamp_s = std::nan("");
  auto duplicate = home;
  duplicate.devices.push_back(duplicate.devices.front());
  auto off_lan = home;
  off_lan.devices.front().ip = make_ip(192, 168, 1, 10);
  const std::pair<const char*, const HomeNetwork*> cases[] = {
      {"unsorted capture", &unsorted},
      {"NaN timestamp", &not_a_number},
      {"duplicate roster address", &duplicate},
      {"non-LAN roster address", &off_lan},
  };
  for (const auto& name : traffic_defense_names()) {
    const auto defense = make_traffic_defense(name);
    for (const auto& [what, hostile] : cases) {
      Rng rng(3);
      EXPECT_THROW((void)defense->apply(*hostile, 900.0, 0.5, rng),
                   InvalidArgument)
          << name << ": " << what;
      // θ = 0 checks nothing: the capture passes through as it is. A NaN
      // is unequal to itself, so timestamps compare as bits.
      const auto kept = defense->apply(*hostile, 900.0, 0.0, rng);
      EXPECT_TRUE(std::ranges::equal(
          kept.packets, hostile->packets, [](Packet a, Packet b) {
            const bool same_time =
                std::bit_cast<std::uint64_t>(a.timestamp_s) ==
                std::bit_cast<std::uint64_t>(b.timestamp_s);
            a.timestamp_s = b.timestamp_s = 0.0;
            return same_time && a == b;
          }))
          << name << ": " << what;
    }
    Rng rng(3);
    EXPECT_THROW((void)defense->apply(
                     home, std::numeric_limits<double>::infinity(), 0.5, rng),
                 InvalidArgument)
        << name;
  }
  // The tunnel's LAN end is the router, so vpn also rejects a roster
  // device at the router's address, which would be credited with every
  // tunneled device's traffic.
  auto at_router = home;
  at_router.devices.back().ip = kDefaultRouterIp;
  Rng router_rng(3);
  EXPECT_THROW((void)VpnAggregation().apply(at_router, 900.0, 0.5, router_rng),
               InvalidArgument);
  EXPECT_NO_THROW(
      (void)StochasticCoverTraffic().apply(at_router, 900.0, 0.5, router_rng));
  // A slot period must stay positive, so constant-rate bounds θ too.
  Rng rng(3);
  EXPECT_THROW((void)ConstantRatePadding().apply(home, 900.0, 1.5, rng),
               InvalidArgument);
  EXPECT_THROW(
      (void)ConstantRatePadding().apply(home, 900.0, std::nan(""), rng),
      InvalidArgument);
}

// --- exactness ---------------------------------------------------------------

/// FNV-1a over every field of every packet, then the bill, byte by byte in
/// little-endian order (padding never enters).
std::uint64_t capture_hash(const ShapedCapture& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto add_double = [&](double d) {
    add(std::bit_cast<std::uint64_t>(d), 8);
  };
  for (const auto& p : s.packets) {
    add_double(p.timestamp_s);
    add(p.src_ip, 4);
    add(p.dst_ip, 4);
    add(p.src_port, 2);
    add(p.dst_port, 2);
    add(static_cast<std::uint8_t>(p.protocol), 1);
    add(static_cast<std::uint32_t>(p.size_bytes), 4);
  }
  add_double(s.original_bytes);
  add_double(s.added_bytes);
  add_double(s.added_latency_s);
  add(s.delayed_packets, 8);
  return h;
}

// Hashes of every defense's capture, bill included, as the stable-sorting
// shapers produced them: the merges must reproduce them bit for bit.
TEST(Shaping, CapturesMatchPinnedHashes) {
  struct Pinned {
    double duration_s;
    std::uint64_t seed;
    const char* defense;
    std::array<std::uint64_t, 4> hashes;  ///< θ = 0.05, 0.35, 0.7, 1
  };
  static constexpr Pinned kPinned[] = {
      {900.0, 1, "constant-rate",
       {0x7df132e71b36ba7cULL, 0xe099193bfbdf9c0eULL, 0x0bc754c467220bacULL,
        0xb0ef06d5da5e65f0ULL}},
      {900.0, 1, "cover",
       {0xf773e905ef4e43e3ULL, 0x95b17fe24cbc0d7fULL, 0xf037cb1ac9604cc6ULL,
        0xa5479fbd45d92295ULL}},
      {900.0, 1, "decoy",
       {0x89d5d87585f8db48ULL, 0x95222af67b7f3767ULL, 0x1f98e9f48c86f9d9ULL,
        0xf154860844764a4fULL}},
      {900.0, 1, "vpn",
       {0xd97beff4b91b0bd4ULL, 0x060d512d4a0bc376ULL, 0x9566d501a6f52837ULL,
        0x558cf0cc5cb8012aULL}},
      {900.0, 2, "constant-rate",
       {0x94d0f20c7fb9bdf2ULL, 0x802db5d876dc7152ULL, 0xcb4bdff727dc277cULL,
        0x70ef6cca87e01e83ULL}},
      {900.0, 2, "cover",
       {0xe282309b4e0dbac0ULL, 0xdc3f1b4758adcc1eULL, 0x7a24739bb8a21d45ULL,
        0x6c00515c7f431567ULL}},
      {900.0, 2, "decoy",
       {0x703c18bea1c84ec2ULL, 0xd55bbde4bfbe47d5ULL, 0xeffbc494c96997efULL,
        0xaee89cdd7e750524ULL}},
      {900.0, 2, "vpn",
       {0x9cf6f2acee867564ULL, 0x965e9e555be99359ULL, 0x61c9e099282b20daULL,
        0xbfbdcf118c55824bULL}},
      {900.0, 3, "constant-rate",
       {0x03ddb21b0f83d07eULL, 0x765093eaca4d6d8aULL, 0x4d140cd6af16078dULL,
        0x9f0c3eaf80c5461aULL}},
      {900.0, 3, "cover",
       {0xd10d12a24c66287fULL, 0xd93c7696eb2e4f23ULL, 0x1172dddf9a668078ULL,
        0x13cc531a75869346ULL}},
      {900.0, 3, "decoy",
       {0x1c61fc6303a0e1d2ULL, 0xaae02fcd132aa820ULL, 0x6a54154155c2c4feULL,
        0x1a350df9165b83d4ULL}},
      {900.0, 3, "vpn",
       {0x54efb9d4cb9f2284ULL, 0x6d73a6988e687451ULL, 0x96306ba731068dafULL,
        0x89c15e24f20e6c2cULL}},
      {3600.0, 1, "constant-rate",
       {0xce113494709bdfdbULL, 0x7511871585f42bbfULL, 0x42bb55fa2a6bad30ULL,
        0xe449ea0b57cbf03aULL}},
      {3600.0, 1, "cover",
       {0x968c1c9a87fac2f4ULL, 0x32ed4ba38ad97572ULL, 0x5942297871ded325ULL,
        0xf424234e1d265bcbULL}},
      {3600.0, 1, "decoy",
       {0x6e9a64b78cc01725ULL, 0xb9507737ce941fefULL, 0x5e7a0561529e2214ULL,
        0x6a6dc8220e699bafULL}},
      {3600.0, 1, "vpn",
       {0xa1047fda36bd806dULL, 0x1b3047875e8f886bULL, 0x779b8bd0d1b2ac3bULL,
        0x611dc80d672be0abULL}},
      {3600.0, 2, "constant-rate",
       {0x4a931b50173a9d8aULL, 0x9631e730996542acULL, 0xdf58f2d671de7cedULL,
        0x1e2e5e5989a11189ULL}},
      {3600.0, 2, "cover",
       {0x4a069bbda169d28aULL, 0x0e3eca4898773fffULL, 0x8ca6d9fc6a6cfae1ULL,
        0x5c8257f70c055c5fULL}},
      {3600.0, 2, "decoy",
       {0xf61fb5dee210f411ULL, 0xd364639a2168ee9cULL, 0x175f4639870fae63ULL,
        0xf79918ea6fc9eb5fULL}},
      {3600.0, 2, "vpn",
       {0x6b23b8ff07edab91ULL, 0x0217000a70048b52ULL, 0x6438317338299740ULL,
        0x6738021ab26937c0ULL}},
      {3600.0, 3, "constant-rate",
       {0x3aa579f79491d68eULL, 0x5f0e5057b98281cfULL, 0xf81e80a833f65645ULL,
        0x31a4b6aa278217ffULL}},
      {3600.0, 3, "cover",
       {0x8ba21d7b6c27553cULL, 0x6248c02c9449f83dULL, 0x1e8720e4e95e62cdULL,
        0x3d8adde718f2884dULL}},
      {3600.0, 3, "decoy",
       {0x594932e5a432475bULL, 0xe582390f3e1e7c07ULL, 0x349346cef0e5b32eULL,
        0xfff7f5b685a324a2ULL}},
      {3600.0, 3, "vpn",
       {0x490667d73171f4b8ULL, 0xf71e30a9f61f9be3ULL, 0x49b8c8e0d9492616ULL,
        0x4f21745424814034ULL}},
  };
  for (const auto& pin : kPinned) {
    Rng home_rng(pin.seed);
    const auto home = simulate_home_network(1, pin.duration_s, home_rng);
    const auto defense = make_traffic_defense(pin.defense);
    const double thetas[] = {0.05, 0.35, 0.7, 1.0};
    for (std::size_t i = 0; i < 4; ++i) {
      Rng rng(pin.seed * 1000 + 17);
      EXPECT_EQ(capture_hash(defense->apply(home, pin.duration_s, thetas[i],
                                            rng)),
                pin.hashes[i])
          << pin.defense << " duration " << pin.duration_s << " seed "
          << pin.seed << " θ " << thetas[i];
    }
  }
}

/// Constant-rate padding against the stable-sorting oracle: packets,
/// order and bill.
void expect_constant_rate_matches_oracle(const HomeNetwork& home,
                                         double duration_s, double intensity,
                                         std::uint64_t seed,
                                         const std::string& what) {
  Rng rng(seed), oracle_rng(seed);
  const auto got =
      ConstantRatePadding().apply(home, duration_s, intensity, rng);
  const auto want = reference::constant_rate_padding(home, duration_s,
                                                     intensity, oracle_rng);
  EXPECT_TRUE(got.packets == want.packets) << what;
  EXPECT_EQ(got.original_bytes, want.original_bytes) << what;
  EXPECT_EQ(got.added_bytes, want.added_bytes) << what;
  EXPECT_EQ(got.added_latency_s, want.added_latency_s) << what;
  EXPECT_EQ(got.delayed_packets, want.delayed_packets) << what;
}

/// The phases constant-rate padding draws, lane by lane, for the given
/// slot periods (`Rng::uniform(0, slot)` in roster × direction order).
std::vector<double> lane_phases(std::uint64_t seed,
                                const std::vector<double>& slot_s) {
  Rng probe(seed);
  std::vector<double> phases;
  for (const double s : slot_s) phases.push_back(probe.uniform(0.0, s));
  return phases;
}

DeviceProfile crafted_device(int instance) {
  DeviceProfile dev;
  dev.name = "crafted-" + std::to_string(instance);
  dev.ip = make_ip(10, 0, 0, 10 + instance);
  dev.cloud_ip = make_ip(52, 20, 0, 1 + instance);
  return dev;
}

/// A device's packet to or from its cloud. `tag` is the device-side port,
/// so every crafted packet stays tellable apart after size quantization.
Packet up_packet(const DeviceProfile& dev, double t, int tag) {
  const auto port = static_cast<std::uint16_t>(40000 + tag);
  return Packet{t, dev.ip, dev.cloud_ip, port, 443, Protocol::kTcp, 300};
}

Packet down_packet(const DeviceProfile& dev, double t, int tag) {
  const auto port = static_cast<std::uint16_t>(40000 + tag);
  return Packet{t, dev.cloud_ip, dev.ip, 443, port, Protocol::kTcp, 500};
}

std::size_t count_at(const std::vector<Packet>& packets, double t) {
  return static_cast<std::size_t>(std::count_if(
      packets.begin(), packets.end(),
      [&](const Packet& p) { return p.timestamp_s == t; }));
}

// At θ = 1 every lane's slot period is exactly 1 s, so the slot times are
// known from the drawn phases and real packets can be put right on them.
TEST(Shaping, ConstantRateTiesMatchStableSortOracle) {
  constexpr std::uint64_t kSeed = 7;
  const auto dev = crafted_device(0);
  const auto phase = lane_phases(kSeed, {1.0, 1.0});
  const auto slot_time = [&](std::size_t lane, int j) {
    return phase[lane] + static_cast<double>(j) * 1.0;
  };
  const double t5 = slot_time(0, 5);

  {  // 13 arrivals at slot 5: the first overflows in iteration 5 itself
    HomeNetwork home{{dev}, {}};
    for (int i = 0; i < 13; ++i) home.packets.push_back(up_packet(dev, t5, i));
    expect_constant_rate_matches_oracle(home, 20.0, 1.0, kSeed,
                                        "overflow in the slot's iteration");
    Rng rng(kSeed);
    const auto shaped = ConstantRatePadding().apply(home, 20.0, 1.0, rng);
    EXPECT_EQ(count_at(shaped.packets, t5), 2u);  // overflow + slot packet
  }
  {  // 12 at slot 5, 2 more before slot 6: a t5 packet overflows later
    HomeNetwork home{{dev}, {}};
    for (int i = 0; i < 12; ++i) home.packets.push_back(up_packet(dev, t5, i));
    home.packets.push_back(up_packet(dev, t5 + 0.5, 12));
    home.packets.push_back(up_packet(dev, t5 + 0.5, 13));
    expect_constant_rate_matches_oracle(home, 20.0, 1.0, kSeed,
                                        "overflow in a later iteration");
    Rng rng(kSeed);
    const auto shaped = ConstantRatePadding().apply(home, 20.0, 1.0, rng);
    EXPECT_EQ(count_at(shaped.packets, t5), 2u);  // slot 5 + late overflow
  }
  {  // 4 arrivals at the last slot: one rides it, three drain tied to it
    const double last = slot_time(0, 19);
    ASSERT_LT(last, 20.0);
    ASSERT_GE(slot_time(0, 20), 20.0);
    HomeNetwork home{{dev}, {}};
    for (int i = 0; i < 4; ++i) {
      home.packets.push_back(up_packet(dev, last, i));
    }
    expect_constant_rate_matches_oracle(home, 20.0, 1.0, kSeed,
                                        "drain tied with the last slot");
    Rng rng(kSeed);
    const auto shaped = ConstantRatePadding().apply(home, 20.0, 1.0, rng);
    EXPECT_EQ(count_at(shaped.packets, last), 4u);
  }
  {  // a burst on the first slot overflows in iteration 0, tied with it
    HomeNetwork home{{dev}, {}};
    for (int i = 0; i < 15; ++i) {
      home.packets.push_back(up_packet(dev, slot_time(0, 0), i));
    }
    expect_constant_rate_matches_oracle(home, 20.0, 1.0, kSeed,
                                        "overflow on the first slot");
  }
  {  // the down lane overflows exactly at an up-lane slot, and vice versa
    HomeNetwork home{{dev}, {}};
    const double down_slot = slot_time(1, 9);
    for (int i = 0; i < 13; ++i) {
      home.packets.push_back(down_packet(dev, t5, i));
    }
    for (int i = 0; i < 13; ++i) {
      home.packets.push_back(up_packet(dev, down_slot, 20 + i));
    }
    expect_constant_rate_matches_oracle(home, 20.0, 1.0, kSeed,
                                        "real-time packets on other lanes' "
                                        "slots");
  }
}

// Two lanes whose slot times coincide: the silent up lane has a 1 s period
// at θ = 0.5, and the down lane's gap is searched so that its first slot
// lands exactly on one of the up lane's.
TEST(Shaping, ConstantRateEqualSlotTimesAcrossLanesMatchOracle) {
  const auto dev = crafted_device(0);
  for (const bool busy_lane_first : {false, true}) {
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
      Rng probe(seed);
      const double u_first = probe.uniform(), u_second = probe.uniform();
      const double u_silent = busy_lane_first ? u_second : u_first;
      const double u_busy = busy_lane_first ? u_first : u_second;
      for (int j = 1; j <= 12 && !found; ++j) {
        // The silent lane's slot j, as the shaper computes it.
        const double target = u_silent + static_cast<double>(j) * 1.0;
        double gap = 2.0 * (target / u_busy - 0.5);
        if (gap < 0.25 || gap > 15.0) continue;
        for (int step = 0; step < 400 && !found; ++step) {
          const double slot = (1.0 - 0.5) * gap + 0.5 * 1.0;
          const double phase = 0.0 + (slot - 0.0) * u_busy;
          if (phase == target) {
            found = true;
            break;
          }
          gap = std::nextafter(gap, phase < target ? 100.0 : 0.0);
        }
        if (!found) continue;
        HomeNetwork home{{dev}, {}};
        if (busy_lane_first) {  // up lane busy (lane 0), down lane silent
          home.packets = {up_packet(dev, 0.0, 0), up_packet(dev, gap, 1)};
        } else {
          home.packets = {down_packet(dev, 0.0, 0), down_packet(dev, gap, 1)};
        }
        expect_constant_rate_matches_oracle(
            home, 20.0, 0.5, seed,
            std::string("equal slot times, busy lane ") +
                (busy_lane_first ? "first" : "second"));
        Rng rng(seed);
        const auto shaped = ConstantRatePadding().apply(home, 20.0, 0.5, rng);
        EXPECT_EQ(count_at(shaped.packets, target), 2u);
      }
    }
    EXPECT_TRUE(found) << "no exact slot coincidence found";
  }
}

// Several devices with timestamps tied across devices, directions, the
// passed-through LAN chatter and the overflow bursts.
TEST(Shaping, ConstantRateCrossDeviceTiesMatchOracle) {
  const auto a = crafted_device(0), b = crafted_device(1);
  HomeNetwork home{{a, b}, {}};
  for (const double t : {3.0, 50.0}) {
    home.packets.push_back(
        Packet{t, a.ip, b.ip, 5000, 5001, Protocol::kUdp, 80});  // LAN
    for (int i = 0; i < 14; ++i) {
      home.packets.push_back(up_packet(a, t, 100 + i));
      home.packets.push_back(up_packet(b, t, 200 + i));
      home.packets.push_back(down_packet(a, t, 300 + i));
      home.packets.push_back(down_packet(b, t, 400 + i));
    }
  }
  for (const double theta : {0.3, 0.7, 1.0}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      expect_constant_rate_matches_oracle(
          home, 60.0, theta, seed,
          "θ " + std::to_string(theta) + " seed " + std::to_string(seed));
    }
  }
}

// Random captures on a coarse time grid — bursts that overflow, ties within
// and across lanes, LAN chatter, off-roster traffic — against the oracle.
TEST(Shaping, ConstantRateMatchesOracleOnRandomCaptures) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    HomeNetwork home;
    const auto devices = rng.uniform_int(1, 3);
    for (int d = 0; d < devices; ++d) home.devices.push_back(crafted_device(d));
    const auto n = rng.uniform_int(0, 400);
    for (std::int64_t i = 0; i < n; ++i) {
      const double t = 0.25 * static_cast<double>(rng.uniform_int(0, 160));
      const auto& dev = home.devices[static_cast<std::size_t>(
          rng.uniform_int(0, devices - 1))];
      const auto kind = rng.uniform_int(0, 9);
      const int size = static_cast<int>(rng.uniform_int(0, 1600));
      const auto remote = make_ip(52, 20, 0, 1 + static_cast<int>(
                                                 rng.uniform_int(0, 2)));
      const auto port = static_cast<std::uint16_t>(i);  // tells packets apart
      if (kind < 4) {
        home.packets.push_back(
            Packet{t, dev.ip, remote, port, 443, Protocol::kTcp, size});
      } else if (kind < 8) {
        home.packets.push_back(
            Packet{t, remote, dev.ip, 443, port, Protocol::kTcp, size});
      } else if (kind == 8) {
        home.packets.push_back(Packet{t, dev.ip, make_ip(10, 0, 0, 2), 5000,
                                      5000, Protocol::kUdp, size});
      } else {
        home.packets.push_back(Packet{t, make_ip(10, 0, 0, 99), remote,
                                      40099, 443, Protocol::kTcp, size});
      }
    }
    sort_by_time(home.packets);
    const double thetas[] = {0.2, 0.5, 0.9, 1.0};
    expect_constant_rate_matches_oracle(
        home, 42.0, thetas[trial % 4], static_cast<std::uint64_t>(trial),
        "trial " + std::to_string(trial));
  }
  // Whole simulated homes, every device class.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto home = small_home(seed, 1800.0);
    for (const double theta : {0.1, 0.35, 0.7, 1.0}) {
      expect_constant_rate_matches_oracle(home, 1800.0, theta, seed + 50,
                                          "simulated home seed " +
                                              std::to_string(seed));
    }
  }
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
  options.intensities = {0.0};  // no cell shapes; the name is still checked
  EXPECT_THROW(run_arena(options), InvalidArgument);
  options = tiny_arena();
  options.test_instances_per_type = 0;
  EXPECT_THROW(run_arena(options), InvalidArgument);
  options = tiny_arena();
  options.duration_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_arena(options), InvalidArgument);
  // 3.6e12 windows: the tables would need terabytes. Checked by `validate`
  // alone, so a missing bound fails here instead of allocating.
  options = tiny_arena();
  options.duration_s = 3600.0;
  options.window_s = 1e-9;
  EXPECT_THROW(validate(options), InvalidArgument);
  options.window_s = 1e-3;  // 3.6e6 windows x 16 devices x 3 tables: 29 GB
  EXPECT_THROW(validate(options), InvalidArgument);
  options.window_s = 1.0;  // 3,600 windows: well inside the bound
  EXPECT_NO_THROW(validate(options));
}

TEST(Arena, ValidateRejectsWhatRunArenaWouldThrowOnLater) {
  // `run_arena` would throw on these only inside its batches: an unknown
  // attack when the panel is built, and 26 instances per type (208
  // devices) in `make_device` during set-up.
  auto options = tiny_arena();
  options.attacks = {"naive-forest", "bogus"};
  EXPECT_THROW(validate(options), InvalidArgument);
  options = tiny_arena();
  options.test_instances_per_type = kMaxDeviceInstances / kNumDeviceTypes + 1;
  EXPECT_THROW(validate(options), InvalidArgument);
  options = tiny_arena();
  options.train_instances_per_type = kMaxDeviceInstances / kNumDeviceTypes + 1;
  EXPECT_THROW(validate(options), InvalidArgument);
  options = tiny_arena();
  options.attacks = {"adaptive-knn"};
  options.test_instances_per_type = kMaxDeviceInstances / kNumDeviceTypes;
  EXPECT_NO_THROW(validate(options));
}

// --- per-device windows against the capture path ---------------------------

/// Bitwise equality of two feature vectors.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// A simulated home plus the corners the per-device split must get right:
/// a roster device with no WAN packets (LAN chatter only), WAN traffic of
/// an off-roster address and between two Internet hosts, LAN–LAN chatter,
/// and ties at one instant within a device and across devices.
HomeNetwork degenerate_home(std::uint64_t seed, double duration_s) {
  Rng rng(seed);
  auto home = simulate_home_network(1, duration_s, rng);
  const auto quiet = crafted_device(40);  // 10.0.0.50
  home.devices.push_back(quiet);
  const auto a = home.devices[0];
  const auto b = home.devices[1];
  const auto off_roster = make_ip(10, 0, 0, 200);
  const auto remote = make_ip(52, 99, 0, 7);
  auto& packets = home.packets;
  for (int i = 0; i < 40; ++i) {
    const double t = 7.0 * i + 0.5;
    packets.push_back({t, a.ip, quiet.ip, 5000, 8883, Protocol::kTcp, 150});
    packets.push_back(
        {t, quiet.ip, kDefaultRouterIp, 5001, 53, Protocol::kUdp, 60});
    packets.push_back(
        {t, off_roster, remote, 40001, 443, Protocol::kTcp, 700});
    packets.push_back(
        {t, remote, off_roster, 443, 40001, Protocol::kTcp, 900});
    packets.push_back(
        {t, make_ip(8, 8, 8, 8), remote, 53, 53, Protocol::kUdp, 80});
    packets.push_back(up_packet(a, t, 1));
    packets.push_back(down_packet(a, t, 2));
    packets.push_back(up_packet(b, t, 3));
  }
  sort_by_time(packets);
  return home;
}

/// A defense that only adds: on every raw WAN packet of every device, a
/// copy of another size at the same instant, so each raw packet ties with
/// an emitted one, and a LAN–LAN packet the WAN observer must not see.
/// The window features see the tie order through the running size
/// statistics.
class TieEveryPacket final : public TrafficDefense {
 public:
  std::string name() const override { return "tie-every-packet"; }
  Emission emit(const RoutedHome& home, double, Rng&) const override {
    Emission out;
    out.original_bytes = home.original_bytes();
    out.devices.resize(home.home().devices.size());
    for (std::size_t d = 0; d < out.devices.size(); ++d) {
      const auto ip = home.home().devices[d].ip;
      for (const auto& p : home.stream(d)) {
        Packet copy = p;
        copy.size_bytes = 3 * p.size_bytes + 1;
        const Packet chatter{p.timestamp_s, ip, make_ip(10, 0, 0, 250), 7,
                             7, Protocol::kUdp, 40};
        for (const auto& q : {copy, chatter}) {
          out.devices[d].packets.push_back(q);
          out.added_bytes += q.size_bytes;
        }
      }
    }
    return out;
  }
};

/// `arena_windows` against the public capture path — `apply`, `wan_view`,
/// then `windowed_features` and `windowed_recovery_features` per roster
/// device — every row bit for bit, and the bill against the assembled
/// capture's bytes. A null `defense` checks the raw home.
void expect_windows_match_capture_path(const HomeNetwork& home,
                                       const TrafficDefense* defense,
                                       double duration_s, double window_s,
                                       double intensity, std::uint64_t seed,
                                       const std::string& what) {
  const RoutedHome routed(home, duration_s);
  std::vector<std::vector<WindowRow>> got;
  std::vector<Packet> capture = home.packets;
  if (defense != nullptr) {
    Rng emit_rng(seed), apply_rng(seed);
    const auto emission = defense->emit(routed, intensity, emit_rng);
    for (const auto& device : emission.devices) {
      ASSERT_TRUE(std::is_sorted(device.packets.begin(), device.packets.end(),
                                 [](const Packet& x, const Packet& y) {
                                   return x.timestamp_s < y.timestamp_s;
                                 }))
          << what;
    }
    got = arena_windows(routed, &emission, window_s);
    auto shaped = defense->apply(home, duration_s, intensity, apply_rng);
    double original = 0.0, now = 0.0;
    for (const auto& p : home.packets) original += p.size_bytes;
    for (const auto& p : shaped.packets) now += p.size_bytes;
    EXPECT_EQ(emission.original_bytes, original) << what;
    EXPECT_EQ(emission.added_bytes, now - original) << what;
    EXPECT_EQ(emission.added_latency_s, shaped.added_latency_s) << what;
    EXPECT_EQ(emission.delayed_packets, shaped.delayed_packets) << what;
    capture = std::move(shaped.packets);
  } else {
    got = arena_windows(routed, nullptr, window_s);
  }
  const auto wan = wan_view(capture);
  ASSERT_EQ(got.size(), home.devices.size()) << what;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    const auto ip = home.devices[d].ip;
    const auto base = windowed_features(wan, ip, duration_s, window_s,
                                        /*keep_idle_windows=*/true);
    const auto recovery =
        windowed_recovery_features(wan, ip, duration_s, window_s);
    ASSERT_EQ(got[d].size(), base.size()) << what << " device " << d;
    for (std::size_t k = 0; k < base.size(); ++k) {
      auto want = base[k].features;
      want.insert(want.end(), recovery[k].features.begin(),
                  recovery[k].features.end());
      EXPECT_EQ(got[d][k].window_index, k) << what;
      EXPECT_TRUE(same_bits(got[d][k].features, want))
          << what << " device " << d << " window " << k;
    }
  }
}

// The arena windows each device straight from the defense's emission; the
// capture path assembles the whole shaped capture and routes it back. They
// must agree on every row, on simulated homes and on the degenerate
// corners, where the raw stream's packet comes first on a tie with an
// emitted one.
TEST(Arena, PerDeviceWindowsMatchCapturePath) {
  constexpr double kDuration = 1000.0;  // three full windows and a part
  constexpr double kWindow = 300.0;
  const TieEveryPacket ties;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto shaping_seed = seed * 1000 + 3;
    const auto degenerate = degenerate_home(seed, kDuration);
    const auto simulated = small_home(seed, kDuration);
    for (const auto* home : {&degenerate, &simulated}) {
      const std::string what =
          std::string(home == &degenerate ? "degenerate" : "simulated") +
          " seed " + std::to_string(seed);
      expect_windows_match_capture_path(*home, nullptr, kDuration, kWindow,
                                        0.0, shaping_seed, what + " raw");
      expect_windows_match_capture_path(*home, &ties, kDuration, kWindow,
                                        1.0, shaping_seed, what + " ties");
      for (const auto& name : traffic_defense_names()) {
        const auto defense = make_traffic_defense(name);
        for (const double theta : {0.35, 0.7, 1.0}) {
          expect_windows_match_capture_path(
              *home, defense.get(), kDuration, kWindow, theta, shaping_seed,
              what + " " + name + " θ " + std::to_string(theta));
        }
      }
    }
  }
}

// --- per-device routing ------------------------------------------------------

/// The capture a per-device draw merges into, by a stable-sort oracle: the
/// streams concatenated in roster order, then sorted by time.
HomeNetwork merged(const DeviceStreams& home) {
  HomeNetwork out{home.devices, {}};
  for (const auto& stream : home.streams) {
    out.packets.insert(out.packets.end(), stream.begin(), stream.end());
  }
  std::stable_sort(out.packets.begin(), out.packets.end(),
                   [](const Packet& a, const Packet& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return out;
}

TEST(HomeStreams, CaptureIsTheMergeOfThePerDeviceDraw) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const int instances : {1, 2}) {
      Rng capture_rng(seed), streams_rng(seed);
      const auto got = simulate_home_network(instances, 1800.0, capture_rng);
      const auto want =
          merged(simulate_home_streams(instances, 1800.0, streams_rng));
      const std::string what = "seed " + std::to_string(seed) +
                               " instances " + std::to_string(instances);
      ASSERT_EQ(got.devices.size(), want.devices.size()) << what;
      for (std::size_t d = 0; d < want.devices.size(); ++d) {
        EXPECT_EQ(got.devices[d].name, want.devices[d].name) << what;
        EXPECT_EQ(got.devices[d].ip, want.devices[d].ip) << what;
        EXPECT_EQ(got.devices[d].type, want.devices[d].type) << what;
      }
      EXPECT_TRUE(got.packets == want.packets) << what;
      EXPECT_EQ(capture_rng.next(), streams_rng.next()) << what;
    }
  }
}

/// A simulated per-device home plus the corners routing must get right: a
/// silent roster device, one that only its peers' packets reach, a hub
/// whose only traffic is LAN–LAN chatter (to that device and the router),
/// and packets at one instant across devices and within one.
DeviceStreams degenerate_streams(std::uint64_t seed, double duration_s) {
  Rng rng(seed);
  auto home = simulate_home_streams(1, duration_s, rng);
  const auto silent = crafted_device(40);   // 10.0.0.50
  const auto reached = crafted_device(41);  // 10.0.0.51
  const auto hub = crafted_device(42);      // 10.0.0.52
  const auto a = home.devices[0];
  const auto b = home.devices[1];
  std::vector<Packet> chatter;
  for (int i = 0; i < 40; ++i) {
    const double t = 7.0 * i + 0.5;
    chatter.push_back({t, hub.ip, reached.ip, 5000, 8883, Protocol::kTcp, 150});
    chatter.push_back({t, reached.ip, hub.ip, 8883, 5000, Protocol::kTcp, 120});
    chatter.push_back(
        {t, hub.ip, kDefaultRouterIp, 5001, 53, Protocol::kUdp, 60});
    home.streams[0].push_back(up_packet(a, t, 1));
    home.streams[0].push_back(down_packet(a, t, 2));
    home.streams[1].push_back(up_packet(b, t, 3));
  }
  sort_by_time(home.streams[0]);
  sort_by_time(home.streams[1]);
  for (const auto& device : {silent, reached, hub}) {
    home.devices.push_back(device);
    home.streams.emplace_back();
  }
  home.streams.back() = std::move(chatter);
  return home;
}

/// Every device's stream, the capture size and the original bytes.
void expect_same_routing(const RoutedHome& got, const RoutedHome& want,
                         const std::string& what) {
  ASSERT_EQ(got.home().devices.size(), want.home().devices.size()) << what;
  for (std::size_t d = 0; d < want.home().devices.size(); ++d) {
    EXPECT_EQ(got.home().devices[d].ip, want.home().devices[d].ip) << what;
    const auto g = got.stream(d);
    const auto w = want.stream(d);
    EXPECT_TRUE(std::ranges::equal(g, w)) << what << " device " << d;
  }
  EXPECT_EQ(got.stream_packets(), want.stream_packets()) << what;
  EXPECT_EQ(got.capture_size(), want.capture_size()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.original_bytes()),
            std::bit_cast<std::uint64_t>(want.original_bytes()))
      << what;
}

// A home routed from its per-device streams must equal the same home
// routed from the merged capture.
TEST(RoutedHome, PerDeviceStreamsMatchCaptureRouting) {
  constexpr double kDuration = 1000.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto simulated = simulate_home_streams(1, kDuration, rng);
    const auto degenerate = degenerate_streams(seed, kDuration);
    for (const auto* home : {&simulated, &degenerate}) {
      const std::string what =
          std::string(home == &degenerate ? "degenerate" : "simulated") +
          " seed " + std::to_string(seed);
      const auto capture = merged(*home);
      const RoutedHome want(capture, kDuration);
      const RoutedHome got(*home, kDuration);
      EXPECT_EQ(want.capture_size(), capture.packets.size()) << what;
      expect_same_routing(got, want, what);
      if (home == &degenerate) {
        const auto n = home->devices.size();
        for (std::size_t d = n - 3; d < n; ++d) {
          EXPECT_TRUE(got.stream(d).empty()) << what << " device " << d;
        }
      }
    }
  }
}

TEST(RoutedHome, RejectsBadPerDeviceStreams) {
  constexpr double kDuration = 900.0;
  Rng rng(5);
  const auto home = simulate_home_streams(1, kDuration, rng);
  ASSERT_NO_THROW(RoutedHome(home, kDuration));
  auto unsorted = home;
  unsorted.streams[2].push_back(unsorted.streams[2].front());
  auto not_a_number = home;
  not_a_number.streams[3][1].timestamp_s = std::nan("");
  auto foreign = home;  // device 1's packet in device 0's stream
  foreign.streams[0].push_back(home.streams[1].back());
  foreign.streams[0].back().timestamp_s = kDuration;
  auto strangers = home;  // between two hosts off the roster
  strangers.streams[4].push_back({kDuration, make_ip(10, 0, 0, 200),
                                  make_ip(52, 99, 0, 7), 40001, 443,
                                  Protocol::kTcp, 700});
  auto fewer = home;
  fewer.streams.pop_back();
  auto more = home;
  more.streams.emplace_back();
  auto duplicate = home;
  duplicate.devices.back().ip = duplicate.devices.front().ip;
  const std::pair<const char*, const DeviceStreams*> cases[] = {
      {"out-of-order stream", &unsorted},
      {"NaN timestamp", &not_a_number},
      {"another device's packet", &foreign},
      {"packet of two off-roster hosts", &strangers},
      {"fewer streams than devices", &fewer},
      {"more streams than devices", &more},
      {"duplicate roster address", &duplicate},
  };
  for (const auto& [what, hostile] : cases) {
    EXPECT_THROW(RoutedHome(*hostile, kDuration), InvalidArgument) << what;
  }
  EXPECT_THROW(RoutedHome(home, std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(RoutedHome(home, 0.0), InvalidArgument);
}

// --- seed sweep --------------------------------------------------------------

// A 2x2 grid over many seeds is the cheapest fuzzer of the whole pipeline:
// shaping, windowing and every attack's fit. On this grid the old
// split-threshold rounding aborted 14 of these 64 seeds.
TEST(ArenaSeedSweep, SmallGridCompletesOnSeeds1To64) {
  ArenaOptions options;
  options.duration_s = 1800.0;
  options.defenses = {"decoy", "vpn"};
  options.intensities = {0.35, 1.0};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    options.seed = seed;
    ArenaResult result;
    ASSERT_NO_THROW(result = run_arena(options)) << "seed " << seed;
    ASSERT_EQ(result.cells.size(), 4u) << "seed " << seed;
    for (const auto& cell : result.cells) {
      EXPECT_GE(cell.privacy_mcc, -1.0) << "seed " << seed;
      EXPECT_LE(cell.privacy_mcc, 1.0) << "seed " << seed;
      EXPECT_GE(cell.added_bytes_fraction, 0.0) << "seed " << seed;
    }
  }
}

// --- stage timers and counters ------------------------------------------------

/// Runs the grid with metrics on and returns everything it recorded.
obs::Snapshot metered_run(const ArenaOptions& options) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset_values_for_testing();
  obs::set_enabled_for_testing(true);
  (void)run_arena(options);
  auto snap = registry.snapshot({/*include_nondeterministic=*/true});
  obs::set_enabled_for_testing(false);
  registry.reset_values_for_testing();
  return snap;
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t timer_count(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& t : snap.timers) {
    if (t.name == name) return t.count;
  }
  return 0;
}

TEST(Arena, ReportsStageTimersAndCounters) {
  const auto snap = metered_run(tiny_arena());
  // One raw table per home, plus one shaped table per home for each of the
  // 2 cells at θ = 1 (θ = 0 cells read the raw tables): 2 + 2·2. Each table
  // holds every roster device's (kNumDeviceTypes at one instance) two
  // windows.
  const std::uint64_t tables = 2 + 2 * 2;
  EXPECT_EQ(counter_value(snap, "net.arena.windows"),
            tables * kNumDeviceTypes * 2);
  EXPECT_GT(counter_value(snap, "net.arena.packets_routed"), 0u);
  EXPECT_GT(counter_value(snap, "net.shape.packets_added"), 0u);  // padding

  // Device streams actually windowed: every raw one (2 homes), and every
  // constant-rate one, whose stream padding replaces. VPN at θ = 1 tunnels
  // the whole roster, so its tables are silent rows and none is windowed.
  const std::uint64_t streams = 2 * kNumDeviceTypes + 2 * kNumDeviceTypes;
  EXPECT_EQ(timer_count(snap, "net.arena.window_stream"), streams);
  EXPECT_EQ(counter_value(snap, "net.window_accumulator.windows_emitted"),
            streams * 2);
  // Each defense shapes only its θ = 1 cell: 1 cell x 2 homes.
  EXPECT_EQ(timer_count(snap, "net.shape.constant-rate"), 2u);
  EXPECT_EQ(timer_count(snap, "net.shape.vpn"), 2u);
  // One wall timer per batch of the run.
  for (const char* phase : {"net.arena.setup", "net.arena.shape_and_window",
                            "net.arena.fit_and_score"}) {
    EXPECT_EQ(timer_count(snap, phase), 1u) << phase;
  }
}

// The pre-trained attack is fitted once per grid and shared by every cell.
TEST(Arena, PretrainedAttackFitsOncePerGrid) {
  auto options = tiny_arena();
  options.attacks = {"naive-forest"};
  EXPECT_EQ(timer_count(metered_run(options), "ml.forest.fit"), 1u);
  options.intensities = {0.0, 0.5, 1.0};  // 6 cells instead of 4
  EXPECT_EQ(timer_count(metered_run(options), "ml.forest.fit"), 1u);
}

// The pre-trained seed does not depend on the attack's panel position, so
// a reordered sub-panel scores the shared model exactly as the full panel
// does — at any pool width.
TEST(Arena, SubPanelMatchesFullPanelAtEveryWidth) {
  auto options = tiny_arena();
  options.attacks = {"adaptive-knn", "naive-forest"};
  const auto base = run_arena(options);
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride override_pool(pool);
    EXPECT_EQ(describe_divergence(base, run_arena(options)), "")
        << "pool width " << width;
  }
  const auto full = run_arena(tiny_arena());
  ASSERT_EQ(base.cells.size(), full.cells.size());
  ASSERT_EQ(full.cells.front().attacks.front().attack, "naive-forest");
  for (std::size_t c = 0; c < base.cells.size(); ++c) {
    const auto& sub = base.cells[c].attacks[1];
    const auto& ref = full.cells[c].attacks[0];
    ASSERT_EQ(sub.attack, "naive-forest");
    EXPECT_EQ(sub.mcc, ref.mcc) << "cell " << c;
    EXPECT_EQ(sub.accuracy, ref.accuracy) << "cell " << c;
    EXPECT_EQ(base.cells[c].naive_mcc, full.cells[c].naive_mcc)
        << "cell " << c;
  }
}

// --- campaign net axis ------------------------------------------------------

TEST(NetAxis, ConfigRoundTripsCanonically) {
  ArenaOptions options;
  options.defenses = {"vpn", "constant-rate"};
  options.intensities = {0.0, 0.125, 1.0};
  options.duration_s = 1234.5;
  options.seed = 99;
  const auto text = campaign::canonical_net_text(options);
  const auto reparsed = campaign::parse_net_config(text);
  EXPECT_EQ(campaign::canonical_net_text(reparsed), text);
  EXPECT_EQ(campaign::net_config_hash(reparsed),
            campaign::net_config_hash(options));
}

TEST(NetAxis, DefaultCanonicalTextAndHashArePinned) {
  // The arena frontier's "config hash" line is taken over this text; a
  // change to either literal orphans every published net frontier.
  const ArenaOptions options;
  EXPECT_EQ(campaign::canonical_net_text(options),
            "attacks = \n"
            "defenses = constant-rate, cover, decoy, vpn\n"
            "duration_s = 3.6e+03\n"
            "intensities = 0, 0.35, 0.7, 1\n"
            "seed = 2018\n"
            "test_instances = 2\n"
            "train_instances = 2\n"
            "window_s = 3e+02\n");
  EXPECT_EQ(campaign::net_config_hash(options), 0x8502523c9dcee0c3ULL);
  EXPECT_EQ(campaign::text::format_hash(campaign::net_config_hash(options)),
            "8502523c9dcee0c3");
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

TEST(NetAxis, ParserRejectsUnknownAttacksAndOversizedHomes) {
  EXPECT_THROW(campaign::parse_net_config("attacks = bogus"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("test_instances = 26"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("train_instances = 26"),
               InvalidArgument);
  EXPECT_NO_THROW(campaign::parse_net_config(
      "attacks = naive-forest, adaptive-knn\ntest_instances = 25"));
}

TEST(NetAxis, ParserRejectsHostileNumbers) {
  // Each of these used to parse: a count that wrapped through the int
  // narrowing to 1, a sign strtoull silently wrapped, and an infinite
  // horizon that passes the one-full-window check.
  EXPECT_THROW(campaign::parse_net_config("train_instances = 4294967297"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("test_instances = 4294967297"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("train_instances = -1"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("seed = 99999999999999999999"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("duration_s = inf"),
               InvalidArgument);
  EXPECT_THROW(campaign::parse_net_config("duration_s = nan"),
               InvalidArgument);
  // A window count the tables could not hold (kMaxTableBytes).
  EXPECT_THROW(campaign::parse_net_config("window_s = 1e-9"),
               InvalidArgument);
  EXPECT_THROW(
      campaign::parse_net_config("duration_s = 1e15\nwindow_s = 1"),
      InvalidArgument);
}

TEST(NetAxis, FrontierCsvIsByteStable) {
  ArenaOptions options;
  options.defenses = {"constant-rate", "vpn"};
  options.intensities = {0.0, 1.0};
  options.train_instances_per_type = 1;
  options.test_instances_per_type = 1;
  options.duration_s = 600.0;
  options.window_s = 300.0;
  const auto result = run_arena(options);
  std::ostringstream a, b;
  campaign::write_net_frontier_csv(a, options, result);
  campaign::write_net_frontier_csv(b, options, result);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("defense,intensity,"), std::string::npos);
  // One header comment + one column header + one line per cell.
  std::size_t lines = 0;
  for (char c : a.str()) lines += c == '\n';
  EXPECT_EQ(lines, 2u + result.cells.size());
}

}  // namespace
}  // namespace pmiot::net
