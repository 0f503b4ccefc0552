#include "net/shaping.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "common/error.h"
#include "net/features.h"

namespace pmiot::net {

namespace {

constexpr int kMtu = 1400;
constexpr double kCommonSlotS = 1.0;   ///< full-intensity slot period
constexpr double kMinSlotS = 0.25;     ///< slot period clamp
constexpr double kMaxSlotS = 60.0;
constexpr std::size_t kShaperQueueCap = 12;  ///< FIFO depth before overflow
constexpr double kMaxCoverRatePerS = 0.5;    ///< cover exchanges at θ = 1
constexpr std::uint16_t kCoverSrcPort = 40000;
constexpr std::uint16_t kVpnPort = 4500;     ///< IPsec NAT-T
constexpr int kVpnOverheadBytes = 73;        ///< ESP+UDP encapsulation

double total_bytes(std::span<const Packet> packets) {
  double sum = 0.0;
  for (const auto& p : packets) sum += p.size_bytes;
  return sum;
}

/// The θ = 0 contract shared by every defense: the capture passes through
/// bitwise unchanged and the utility bill is zero.
ShapedCapture passthrough(const HomeNetwork& home) {
  ShapedCapture out;
  out.packets = home.packets;
  out.original_bytes = total_bytes(home.packets);
  return out;
}

/// Rounds a wire size up to the quantization grid ("pad-to-bucket").
int quantize_size(int size_bytes, int quantum) {
  if (size_bytes <= 0) return quantum;
  return ((size_bytes + quantum - 1) / quantum) * quantum;
}

}  // namespace

ShapedCapture ConstantRatePadding::apply(const HomeNetwork& home,
                                         double duration_s, double intensity,
                                         Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  if (intensity <= 0.0) return passthrough(home);

  // One shaping lane per roster device per direction; everything the
  // uplink shaper does not own (LAN-LAN chatter, WAN traffic of
  // off-roster addresses) passes through untouched.
  struct Lane {
    std::vector<const Packet*> packets;  ///< capture order = time order
  };
  std::unordered_map<std::uint32_t, std::size_t> device_index;
  for (std::size_t i = 0; i < home.devices.size(); ++i) {
    device_index.emplace(home.devices[i].ip, i);
  }
  std::vector<Lane> lanes(home.devices.size() * 2);  // [2i]=up, [2i+1]=down

  ShapedCapture out;
  out.original_bytes = total_bytes(home.packets);
  out.packets.reserve(home.packets.size());
  for (const auto& p : home.packets) {
    const bool wan = !is_lan(p.src_ip) || !is_lan(p.dst_ip);
    if (wan && is_lan(p.src_ip)) {
      if (const auto it = device_index.find(p.src_ip);
          it != device_index.end()) {
        lanes[it->second * 2].packets.push_back(&p);
        continue;
      }
    } else if (wan && is_lan(p.dst_ip)) {
      if (const auto it = device_index.find(p.dst_ip);
          it != device_index.end()) {
        lanes[it->second * 2 + 1].packets.push_back(&p);
        continue;
      }
    }
    out.packets.push_back(p);
  }

  // Everything so far passed through in capture order; the lanes' output
  // is appended after it and merged in at the end.
  const std::size_t passed_through = out.packets.size();

  // Quantization grid: 1 byte (no-op) at θ→0, the MTU at θ=1, where every
  // cell is exactly 1400 bytes.
  const int quantum = std::max(
      1, static_cast<int>(std::lround(intensity * static_cast<double>(kMtu))));

  for (std::size_t li = 0; li < lanes.size(); ++li) {
    const auto& lane = lanes[li].packets;
    const auto& dev = home.devices[li / 2];
    const bool up = (li % 2) == 0;

    // Device-matched cadence: the lane's own mean inter-arrival time,
    // pulled toward the common 1 s metronome as intensity rises. Silent
    // lanes pad at the common cadence outright — a device with nothing to
    // say must not stand out by its silence.
    double lane_gap = kCommonSlotS;
    if (lane.size() >= 2) {
      lane_gap = (lane.back()->timestamp_s - lane.front()->timestamp_s) /
                 static_cast<double>(lane.size() - 1);
    }
    lane_gap = std::clamp(lane_gap, kMinSlotS, kMaxSlotS);
    const double slot_s =
        (1.0 - intensity) * lane_gap + intensity * kCommonSlotS;

    // Cover packets impersonate the lane's dominant cloud conversation.
    std::uint32_t peer = dev.cloud_ip;
    std::size_t best = 0;
    std::unordered_map<std::uint32_t, std::size_t> peer_counts;
    for (const Packet* p : lane) {
      const auto remote = up ? p->dst_ip : p->src_ip;
      const auto n = ++peer_counts[remote];
      if (n > best) {  // ties keep the earlier winner: deterministic
        best = n;
        peer = remote;
      }
    }
    double mean_size = 120.0;
    if (!lane.empty()) {
      double sum = 0.0;
      for (const Packet* p : lane) sum += p->size_bytes;
      mean_size = sum / static_cast<double>(lane.size());
    }
    const int cover_size =
        quantize_size(static_cast<int>(std::lround(mean_size)), quantum);

    // Every lane draws its phase (device desynchronization), in the fixed
    // roster × direction order, so the stream is reproducible.
    const double phase = rng.uniform(0.0, slot_s);

    const auto emit_at_real_time = [&](const Packet& p) {
      Packet q = p;
      q.size_bytes = quantize_size(q.size_bytes, quantum);
      out.packets.push_back(q);
    };

    std::deque<const Packet*> queue;
    std::size_t next = 0;
    for (std::size_t slot = 0;; ++slot) {
      const double t = phase + static_cast<double>(slot) * slot_s;
      if (t >= duration_s) break;
      while (next < lane.size() && lane[next]->timestamp_s <= t) {
        queue.push_back(lane[next++]);
        if (queue.size() > kShaperQueueCap) {
          // Bounded queue: burst overflow is flushed at real timestamps
          // with only size quantization — the deliberate leak an adaptive
          // attacker's burst-recovery features detect (arXiv:2406.10358).
          emit_at_real_time(*queue.front());
          queue.pop_front();
        }
      }
      if (!queue.empty()) {
        const Packet* p = queue.front();
        queue.pop_front();
        Packet q = *p;
        q.timestamp_s = t;
        q.size_bytes = quantize_size(q.size_bytes, quantum);
        out.packets.push_back(q);
        if (t > p->timestamp_s) {
          out.added_latency_s += t - p->timestamp_s;
          ++out.delayed_packets;
        }
      } else if (up) {
        out.packets.push_back(Packet{t, dev.ip, peer, kCoverSrcPort, 443,
                                     Protocol::kTcp, cover_size});
      } else {
        out.packets.push_back(Packet{t, peer, dev.ip, 443, kCoverSrcPort,
                                     Protocol::kTcp, cover_size});
      }
    }
    // Arrivals after the last slot (or still queued at the end) drain at
    // their real timestamps, like overflow.
    while (next < lane.size()) queue.push_back(lane[next++]);
    for (const Packet* p : queue) emit_at_real_time(*p);
  }

  merge_sorted_tail(out.packets, passed_through);
  out.added_bytes = total_bytes(out.packets) - out.original_bytes;
  return out;
}

ShapedCapture StochasticCoverTraffic::apply(const HomeNetwork& home,
                                            double duration_s,
                                            double intensity, Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  if (intensity <= 0.0) return passthrough(home);

  ShapedCapture out = passthrough(home);
  const std::size_t real = out.packets.size();
  const double rate = intensity * kMaxCoverRatePerS;
  for (const auto& dev : home.devices) {
    // Exponential-gap exchanges to random *other-vendor* cloud blocks:
    // widens distinct_remotes, udp/up fractions, and the IAT marginals.
    double t = rng.exponential(rate);
    while (t < duration_s) {
      const auto cloud = make_ip(
          52, 20 + static_cast<int>(rng.uniform_int(0, kNumDeviceTypes - 1)),
          0, static_cast<int>(rng.uniform_int(1, 250)));
      const int up_bytes = static_cast<int>(rng.uniform_int(80, 1200));
      const int down_bytes = static_cast<int>(rng.uniform_int(80, kMtu));
      out.packets.push_back(Packet{t, dev.ip, cloud, kCoverSrcPort, 443,
                                   Protocol::kTcp, up_bytes});
      const double reply = t + rng.uniform(0.01, 0.2);
      if (reply < duration_s) {
        out.packets.push_back(Packet{reply, cloud, dev.ip, 443, kCoverSrcPort,
                                     Protocol::kTcp, down_bytes});
        out.added_bytes += down_bytes;
      }
      out.added_bytes += up_bytes;
      t += rng.exponential(rate);
    }
  }
  merge_sorted_tail(out.packets, real);
  return out;
}

ShapedCapture DecoyFlows::apply(const HomeNetwork& home, double duration_s,
                                double intensity, Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  if (intensity <= 0.0) return passthrough(home);

  ShapedCapture out = passthrough(home);
  const std::size_t real = out.packets.size();
  for (const auto& dev : home.devices) {
    // A decoy personality of a *different* class, bound to the same LAN
    // address: make_device pins ip to 10.0.0.10+instance, so reusing the
    // device's instance id aliases the decoy onto the real device.
    const int instance = static_cast<int>(dev.ip & 0xffu) - 10;
    const int shift = 1 + static_cast<int>(rng.uniform_int(
                              0, kNumDeviceTypes - 2));
    const auto decoy_type = static_cast<DeviceType>(
        (static_cast<int>(dev.type) + shift) % kNumDeviceTypes);
    auto decoy = make_device(decoy_type, instance, rng);
    decoy.infection = Infection::kNone;

    const std::size_t begin = out.packets.size();
    simulate_device_append(decoy, duration_s, rng, out.packets);
    // Intensity thins the decoy stream per packet (drawn in append order,
    // so the kept subset is reproducible).
    std::size_t kept = begin;
    for (std::size_t i = begin; i < out.packets.size(); ++i) {
      if (rng.bernoulli(intensity)) out.packets[kept++] = out.packets[i];
    }
    out.packets.resize(kept);
    for (std::size_t i = begin; i < kept; ++i) {
      out.added_bytes += out.packets[i].size_bytes;
    }
  }
  merge_sorted_tail(out.packets, real);
  return out;
}

ShapedCapture VpnAggregation::apply(const HomeNetwork& home, double duration_s,
                                    double intensity, Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  (void)rng;  // tunnel membership and rewriting are fully deterministic
  if (intensity <= 0.0) return passthrough(home);

  const auto tunneled_count = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(home.devices.size()),
      std::ceil(intensity * static_cast<double>(home.devices.size()))));
  std::unordered_map<std::uint32_t, bool> tunneled;
  for (std::size_t i = 0; i < tunneled_count; ++i) {
    tunneled.emplace(home.devices[i].ip, true);
  }
  const std::uint32_t router = kDefaultRouterIp;
  const std::uint32_t concentrator = make_ip(198, 18, 0, 1);

  const auto esp_size = [](int size_bytes) {
    return 16 * ((size_bytes + kVpnOverheadBytes + 15) / 16);
  };

  ShapedCapture out;
  out.original_bytes = total_bytes(home.packets);
  out.packets.reserve(home.packets.size());
  for (const auto& p : home.packets) {
    if (!is_lan(p.dst_ip) && tunneled.count(p.src_ip) != 0) {
      out.packets.push_back(Packet{p.timestamp_s, router, concentrator,
                                   kVpnPort, kVpnPort, Protocol::kUdp,
                                   esp_size(p.size_bytes)});
    } else if (!is_lan(p.src_ip) && tunneled.count(p.dst_ip) != 0) {
      out.packets.push_back(Packet{p.timestamp_s, concentrator, router,
                                   kVpnPort, kVpnPort, Protocol::kUdp,
                                   esp_size(p.size_bytes)});
    } else {
      out.packets.push_back(p);
    }
  }
  // Timestamps are untouched, so the input's time-sortedness is preserved.
  out.added_bytes = total_bytes(out.packets) - out.original_bytes;
  return out;
}

const std::vector<std::string>& traffic_defense_names() {
  static const std::vector<std::string> names = {"constant-rate", "cover",
                                                 "decoy", "vpn"};
  return names;
}

std::unique_ptr<TrafficDefense> make_traffic_defense(const std::string& name) {
  if (name == "constant-rate") return std::make_unique<ConstantRatePadding>();
  if (name == "cover") return std::make_unique<StochasticCoverTraffic>();
  if (name == "decoy") return std::make_unique<DecoyFlows>();
  if (name == "vpn") return std::make_unique<VpnAggregation>();
  PMIOT_CHECK(false, "unknown traffic defense: " + name);
  return nullptr;
}

std::vector<Packet> wan_view(std::span<const Packet> packets) {
  std::vector<Packet> out;
  for (const auto& p : packets) {
    if (!is_lan(p.src_ip) || !is_lan(p.dst_ip)) out.push_back(p);
  }
  return out;
}

}  // namespace pmiot::net
