#include "net/shaping.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "net/features.h"
#include "net/open_table.h"

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

/// The input checks every defense makes before it shapes: a finite
/// horizon, a roster of distinct LAN addresses and a time-sorted capture.
/// Returns the roster's slot table.
DeviceSlots checked_roster(const HomeNetwork& home, double duration_s) {
  PMIOT_CHECK(std::isfinite(duration_s), "duration must be finite");
  DeviceSlots slots;
  for (const auto& dev : home.devices) slots.add(dev.ip);
  double last = -std::numeric_limits<double>::infinity();
  for (const auto& p : home.packets) {
    PMIOT_CHECK(p.timestamp_s >= last,
                "shaper input must be time-sorted (use sort_by_time)");
    last = p.timestamp_s;
  }
  return slots;
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
  PMIOT_CHECK(intensity <= 1.0, "intensity must be within [0, 1]");
  const auto roster = checked_roster(home, duration_s);

  // One shaping lane per roster device per direction, [2i] up and [2i+1]
  // down; everything the uplink shaper does not own (LAN-LAN chatter, WAN
  // traffic of off-roster addresses) passes through untouched. The lanes'
  // packets are copied out lane after lane, so each lane is read
  // sequentially: lane li is lane_packets[lane_begin[li], lane_begin[li+1]).
  // A counting sort: lane l's count lands in lane_begin[l + 2], so after
  // the prefix sum lane_begin[l + 1] is where lane l starts, and after the
  // fill, which advances it, lane_begin[l] is.
  const std::size_t num_lanes = home.devices.size() * 2;
  constexpr std::uint16_t kPassed = 0xffff;
  std::vector<std::uint16_t> lane_of(home.packets.size());
  std::vector<std::size_t> lane_begin(num_lanes + 2, 0);
  for (std::size_t i = 0; i < home.packets.size(); ++i) {
    const auto& p = home.packets[i];
    const bool src_lan = is_lan(p.src_ip);
    const bool dst_lan = is_lan(p.dst_ip);
    const int up = src_lan && !dst_lan ? roster[p.src_ip] : -1;
    const int down = dst_lan && !src_lan ? roster[p.dst_ip] : -1;
    lane_of[i] = up >= 0     ? static_cast<std::uint16_t>(2 * up)
                 : down >= 0 ? static_cast<std::uint16_t>(2 * down + 1)
                             : kPassed;
    if (lane_of[i] != kPassed) ++lane_begin[lane_of[i] + 2];
  }
  for (std::size_t li = 2; li < lane_begin.size(); ++li) {
    lane_begin[li] += lane_begin[li - 1];
  }
  std::vector<Packet> lane_packets(lane_begin.back());
  std::vector<Packet> passed;
  passed.reserve(home.packets.size() - lane_packets.size());
  for (std::size_t i = 0; i < home.packets.size(); ++i) {
    if (lane_of[i] == kPassed) {
      passed.push_back(home.packets[i]);
    } else {
      lane_packets[lane_begin[lane_of[i] + 1]++] = home.packets[i];
    }
  }
  lane_of = {};
  const auto lane_at = [&](std::size_t li) {
    return std::span<const Packet>(lane_packets)
        .subspan(lane_begin[li], lane_begin[li + 1] - lane_begin[li]);
  };

  // Device-matched cadence: the lane's own mean inter-arrival time, pulled
  // toward the common 1 s metronome as intensity rises. Silent lanes pad
  // at the common cadence outright — a device with nothing to say must
  // not stand out by its silence.
  std::vector<double> slot_s(num_lanes);
  // Room for the whole result, so the lanes and the final merge never
  // reallocate: the passed-through packets, every lane packet and a bound
  // on each lane's slot count.
  std::size_t most_out = home.packets.size();
  for (std::size_t li = 0; li < num_lanes; ++li) {
    const auto lane = lane_at(li);
    double lane_gap = kCommonSlotS;
    if (lane.size() >= 2) {
      lane_gap = (lane.back().timestamp_s - lane.front().timestamp_s) /
                 static_cast<double>(lane.size() - 1);
    }
    lane_gap = std::clamp(lane_gap, kMinSlotS, kMaxSlotS);
    slot_s[li] = (1.0 - intensity) * lane_gap + intensity * kCommonSlotS;
    most_out += static_cast<std::size_t>(duration_s / slot_s[li]) + 2;
  }

  // Quantization grid: 1 byte (no-op) at θ→0, the MTU at θ=1, where every
  // cell is exactly 1400 bytes.
  const int quantum = std::max(
      1, static_cast<int>(std::lround(intensity * static_cast<double>(kMtu))));

  // The passed-through packets, then each lane's output in time order,
  // lane after lane: the runs the final merge interleaves.
  std::vector<Packet> runs;
  runs.reserve(most_out);
  runs.insert(runs.end(), passed.begin(), passed.end());

  // A lane emits two time-ordered streams: one packet per slot, written to
  // `runs` as it goes, and the packets sent at their real time (overflow,
  // final drain) in FIFO order, each tagged with the slot iteration that
  // emitted it.
  struct RealTime {
    Packet packet;
    std::size_t slot;  ///< emitting iteration; the final drain gets S
  };
  std::vector<RealTime> real_time;
  OpenTable<std::uint32_t, IpHash> peer_counts;
  ShapedCapture out;
  out.original_bytes = total_bytes(home.packets);
  for (std::size_t li = 0; li < num_lanes; ++li) {
    const auto lane = lane_at(li);
    const auto& dev = home.devices[li / 2];
    const bool up = (li % 2) == 0;

    // Cover packets impersonate the lane's dominant cloud conversation.
    // Counted a stretch of equal remotes at a time: a stretch's end count
    // beats `best` exactly when one of its running counts would, and for
    // the same remote.
    std::uint32_t peer = dev.cloud_ip;
    std::uint32_t best = 0;
    double size_sum = 0.0;
    peer_counts.clear();
    for (std::size_t i = 0; i < lane.size();) {
      const auto remote_of = [&](std::size_t k) {
        return up ? lane[k].dst_ip : lane[k].src_ip;
      };
      const auto remote = remote_of(i);
      std::uint32_t stretch = 0;
      for (; i < lane.size() && remote_of(i) == remote; ++i, ++stretch) {
        size_sum += lane[i].size_bytes;
      }
      const auto n = peer_counts.try_emplace(remote, 0).first += stretch;
      if (n > best) {  // ties keep the earlier winner: deterministic
        best = n;
        peer = remote;
      }
    }
    const double mean_size =
        lane.empty() ? 120.0 : size_sum / static_cast<double>(lane.size());
    const int cover_size =
        quantize_size(static_cast<int>(std::lround(mean_size)), quantum);

    // Every lane draws its phase (device desynchronization), in the fixed
    // roster × direction order, so the stream is reproducible.
    const double phase = rng.uniform(0.0, slot_s[li]);

    const auto emit_at_real_time = [&](const Packet& p, std::size_t slot) {
      Packet q = p;
      q.size_bytes = quantize_size(q.size_bytes, quantum);
      real_time.push_back({q, slot});
    };

    // The FIFO, as a ring: it never holds more than kShaperQueueCap + 1.
    std::array<const Packet*, 16> ring{};
    static_assert(kShaperQueueCap < ring.size());
    std::size_t head = 0, queued = 0;
    const auto pop = [&] {
      const Packet* p = ring[head];
      head = (head + 1) % ring.size();
      --queued;
      return p;
    };
    const std::size_t base = runs.size();
    real_time.clear();
    std::size_t next = 0;
    for (std::size_t slot = 0;; ++slot) {
      const double t = phase + static_cast<double>(slot) * slot_s[li];
      if (t >= duration_s) break;
      while (next < lane.size() && lane[next].timestamp_s <= t) {
        ring[(head + queued++) % ring.size()] = &lane[next++];
        if (queued > kShaperQueueCap) {
          // Bounded queue: burst overflow is flushed at real timestamps
          // with only size quantization — the deliberate leak an adaptive
          // attacker's burst-recovery features detect (arXiv:2406.10358).
          emit_at_real_time(*pop(), slot);
        }
      }
      if (queued > 0) {
        const Packet* p = pop();
        Packet q = *p;
        q.timestamp_s = t;
        q.size_bytes = quantize_size(q.size_bytes, quantum);
        runs.push_back(q);
        if (t > p->timestamp_s) {
          out.added_latency_s += t - p->timestamp_s;
          ++out.delayed_packets;
        }
      } else if (up) {
        runs.push_back(Packet{t, dev.ip, peer, kCoverSrcPort, 443,
                              Protocol::kTcp, cover_size});
      } else {
        runs.push_back(Packet{t, peer, dev.ip, 443, kCoverSrcPort,
                              Protocol::kTcp, cover_size});
      }
    }
    // Packets still queued at the end, then arrivals after the last slot,
    // drain at their real timestamps, like overflow.
    const std::size_t slots = runs.size() - base;
    while (queued > 0) emit_at_real_time(*pop(), slots);
    while (next < lane.size()) emit_at_real_time(lane[next++], slots);

    // Merge the real-time packets in, from the back. The lane ends up in
    // time order with ties in emission order: iteration k emits its
    // overflow before its slot packet, so a real-time packet emitted in
    // iteration k precedes a tied slot packet j iff k <= j.
    runs.resize(base + slots + real_time.size());
    Packet* const lane_out = runs.data() + base;
    std::size_t j = slots, r = real_time.size(), to = slots + r;
    while (r > 0) {
      const auto& rt = real_time[r - 1];
      const bool slot_later =
          j > 0 && (rt.packet.timestamp_s < lane_out[j - 1].timestamp_s ||
                    (rt.packet.timestamp_s == lane_out[j - 1].timestamp_s &&
                     rt.slot <= j - 1));
      if (slot_later) {
        lane_out[--to] = lane_out[--j];
      } else {
        lane_out[--to] = rt.packet;
        --r;
      }
    }
  }

  lane_packets = {};  // released before the merge takes its buffer
  merge_sorted_tail(runs, passed.size());
  out.packets = std::move(runs);
  out.added_bytes = total_bytes(out.packets) - out.original_bytes;
  return out;
}

ShapedCapture StochasticCoverTraffic::apply(const HomeNetwork& home,
                                            double duration_s,
                                            double intensity, Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  if (intensity <= 0.0) return passthrough(home);
  (void)checked_roster(home, duration_s);

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
  (void)checked_roster(home, duration_s);

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
  const auto slots = checked_roster(home, duration_s);

  // The first ceil(θ·N) roster devices are tunneled: their slots.
  const auto tunneled_count = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(home.devices.size()),
      std::ceil(intensity * static_cast<double>(home.devices.size()))));
  const auto tunneled = [&](std::uint32_t ip) {
    const int s = slots[ip];
    return s >= 0 && static_cast<std::size_t>(s) < tunneled_count;
  };
  const std::uint32_t router = kDefaultRouterIp;
  const std::uint32_t concentrator = make_ip(198, 18, 0, 1);

  const auto esp_size = [](int size_bytes) {
    return 16 * ((size_bytes + kVpnOverheadBytes + 15) / 16);
  };

  ShapedCapture out;
  out.original_bytes = total_bytes(home.packets);
  out.packets.reserve(home.packets.size());
  for (const auto& p : home.packets) {
    if (!is_lan(p.dst_ip) && tunneled(p.src_ip)) {
      out.packets.push_back(Packet{p.timestamp_s, router, concentrator,
                                   kVpnPort, kVpnPort, Protocol::kUdp,
                                   esp_size(p.size_bytes)});
    } else if (!is_lan(p.src_ip) && tunneled(p.dst_ip)) {
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
