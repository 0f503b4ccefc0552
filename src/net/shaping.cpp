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

/// An emission with one kept, unchanged entry per roster device and no
/// bill yet beyond the original bytes.
Emission blank_emission(const RoutedHome& home) {
  Emission out;
  out.original_bytes = home.original_bytes();
  out.devices.resize(home.home().devices.size());
  return out;
}

/// The capture an emission on `home` describes (the `TrafficDefense`
/// contract): the packets of `capture` that stay, in order — every packet
/// of a kept device or of no device, and each dropped device's
/// replacements in its packets' places — then every kept device's added
/// packets and every replaced device's new stream in roster order,
/// merged stably by time. Each of those is one sorted run, so the merge
/// sees at most one run per device.
ShapedCapture assemble(std::span<const Packet> capture,
                       const RoutedHome& home, const Emission& emission) {
  using Raw = DeviceEmission::Raw;
  const auto& devices = emission.devices;
  const std::size_t size = shaped_size(home, emission);
  ShapedCapture out;
  static_cast<ShapingBill&>(out) = emission;
  out.packets.reserve(size);
  std::vector<std::size_t> next(devices.size(), 0);  // dropped: next place
  for (const auto& p : capture) {
    const int slot = wan_slot(home.slots(), p);
    if (slot < 0) {
      out.packets.push_back(p);
      continue;
    }
    const auto d = static_cast<std::size_t>(slot);
    switch (devices[d].raw) {
      case Raw::kKept:
        out.packets.push_back(p);
        break;
      case Raw::kDropped:
        out.packets.push_back(devices[d].packets[next[d]++]);
        break;
      case Raw::kReplaced:
        break;
    }
  }
  const std::size_t stays = out.packets.size();
  for (const auto& device : devices) {
    if (device.raw == Raw::kDropped) continue;
    out.packets.insert(out.packets.end(), device.packets.begin(),
                       device.packets.end());
  }
  PMIOT_ASSERT(out.packets.size() == size, "emission does not fit the home");
  merge_sorted_tail(out.packets, stays);
  return out;
}

/// The roster and each roster device's packets by `wan_slot`, in capture
/// order; throws unless the capture is time-sorted and the roster valid.
DeviceStreams wan_streams(const HomeNetwork& home) {
  DeviceSlots slots;
  for (const auto& dev : home.devices) slots.add(dev.ip);
  DeviceStreams out{home.devices, std::vector<std::vector<Packet>>(
                                       home.devices.size())};
  double last = -std::numeric_limits<double>::infinity();
  for (const auto& p : home.packets) {
    PMIOT_CHECK(p.timestamp_s >= last,
                "shaper input must be time-sorted (use sort_by_time)");
    last = p.timestamp_s;
    if (const int slot = wan_slot(slots, p); slot >= 0) {
      out.streams[static_cast<std::size_t>(slot)].push_back(p);
    }
  }
  return out;
}

/// Rounds a wire size up to the quantization grid ("pad-to-bucket").
int quantize_size(int size_bytes, int quantum) {
  if (size_bytes <= 0) return quantum;
  return ((size_bytes + quantum - 1) / quantum) * quantum;
}

}  // namespace

std::size_t shaped_size(const RoutedHome& home, const Emission& emission) {
  using Raw = DeviceEmission::Raw;
  std::size_t size = home.capture_size();
  PMIOT_ASSERT(emission.devices.size() == home.home().devices.size(),
               "one emission per roster device");
  for (std::size_t d = 0; d < emission.devices.size(); ++d) {
    const auto& device = emission.devices[d];
    PMIOT_ASSERT(device.raw != Raw::kDropped ||
                     device.packets.size() == home.stream(d).size(),
                 "a dropped device's packets replace its stream one for one");
    if (device.raw == Raw::kReplaced) size -= home.stream(d).size();
    if (device.raw != Raw::kDropped) size += device.packets.size();
  }
  return size;
}

RoutedHome::RoutedHome(DeviceStreams home, double duration_s)
    : home_(std::move(home)), duration_s_(duration_s) {
  PMIOT_CHECK(duration_s > 0.0 && std::isfinite(duration_s),
              "duration must be positive and finite");
  for (const auto& dev : home_.devices) slots_.add(dev.ip);
  PMIOT_CHECK(home_.streams.size() == home_.devices.size(),
              "one stream per roster device");
  for (std::size_t d = 0; d < home_.streams.size(); ++d) {
    auto& stream = home_.streams[d];
    const auto slot = static_cast<int>(d);
    double last = -std::numeric_limits<double>::infinity();
    for (const auto& p : stream) {
      PMIOT_CHECK(p.timestamp_s >= last,
                  "shaper input must be time-sorted (use sort_by_time)");
      last = p.timestamp_s;
      PMIOT_CHECK(slots_[p.src_ip] == slot || slots_[p.dst_ip] == slot,
                  "a device's stream holds only its own packets");
      original_bytes_ += p.size_bytes;
    }
    capture_size_ += stream.size();
    std::erase_if(stream, [](const Packet& p) {
      return is_lan(p.src_ip) && is_lan(p.dst_ip);
    });
    stream_packets_ += stream.size();
  }
}

RoutedHome::RoutedHome(const HomeNetwork& home, double duration_s)
    : RoutedHome(wan_streams(home), duration_s) {
  // Off-roster and LAN–LAN packets are in the capture but in no stream.
  capture_size_ = home.packets.size();
  original_bytes_ = total_bytes(home.packets);
}

ShapedCapture TrafficDefense::apply(const HomeNetwork& home, double duration_s,
                                    double intensity, Rng& rng) const {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  if (intensity <= 0.0) return passthrough(home);
  const RoutedHome routed(home, duration_s);
  return assemble(home.packets, routed, emit(routed, intensity, rng));
}

Emission ConstantRatePadding::emit(const RoutedHome& home, double intensity,
                                   Rng& rng) const {
  PMIOT_CHECK(intensity <= 1.0, "intensity must be within [0, 1]");
  const double duration_s = home.duration_s();
  // Quantization grid: 1 byte (no-op) at θ→0, the MTU at θ=1, where every
  // cell is exactly 1400 bytes.
  const int quantum = std::max(
      1, static_cast<int>(std::lround(intensity * static_cast<double>(kMtu))));

  // Each roster device's WAN stream is two shaping lanes, up (device to
  // the Internet) then down, and the device's new stream is the two
  // lanes' outputs merged, up first on ties. Everything the uplink shaper
  // does not own — LAN–LAN chatter, WAN traffic of off-roster addresses —
  // is no device's stream and passes through untouched.
  //
  // A lane emits two time-ordered streams: one packet per slot, written to
  // the device's stream as it goes, and the packets sent at their real
  // time (overflow, final drain) in FIFO order, each tagged with the slot
  // iteration that emitted it.
  struct RealTime {
    Packet packet;
    std::size_t slot;  ///< emitting iteration; the final drain gets S
  };
  std::vector<RealTime> real_time;
  std::array<std::vector<const Packet*>, 2> lanes;
  OpenTable<std::uint32_t, IpHash> peer_counts;
  Emission out = blank_emission(home);
  double raw_bytes = 0.0, shaped_bytes = 0.0;
  for (std::size_t d = 0; d < out.devices.size(); ++d) {
    const auto& dev = home.home().devices[d];
    const auto stream = home.stream(d);
    auto& device = out.devices[d];
    device.raw = DeviceEmission::Raw::kReplaced;
    raw_bytes += total_bytes(stream);

    // The lanes, [0] up and [1] down, each in capture order.
    for (auto& lane : lanes) lane.clear();
    for (const auto& p : stream) {
      lanes[p.src_ip == dev.ip ? 0 : 1].push_back(&p);
    }

    // Device-matched cadence per lane: the lane's own mean inter-arrival
    // time, pulled toward the common 1 s metronome as intensity rises.
    // Silent lanes pad at the common cadence outright — a device with
    // nothing to say must not stand out by its silence. Room for the
    // whole stream: every real packet and a bound on each lane's slots.
    std::array<double, 2> slot_s{};
    std::size_t most_out = stream.size();
    for (std::size_t li = 0; li < 2; ++li) {
      const auto& lane = lanes[li];
      double lane_gap = kCommonSlotS;
      if (lane.size() >= 2) {
        lane_gap = (lane.back()->timestamp_s - lane.front()->timestamp_s) /
                   static_cast<double>(lane.size() - 1);
      }
      lane_gap = std::clamp(lane_gap, kMinSlotS, kMaxSlotS);
      slot_s[li] = (1.0 - intensity) * lane_gap + intensity * kCommonSlotS;
      most_out += static_cast<std::size_t>(duration_s / slot_s[li]) + 2;
    }
    auto& runs = device.packets;
    runs.reserve(most_out);
    std::size_t up_end = 0;  // where the down lane's output starts

    for (std::size_t li = 0; li < 2; ++li) {
      const auto& lane = lanes[li];
      const bool up = li == 0;
      const double lane_slot_s = slot_s[li];

      // Cover packets impersonate the lane's dominant cloud conversation.
      // Counted a stretch of equal remotes at a time: a stretch's end
      // count beats `best` exactly when one of its running counts would,
      // and for the same remote.
      std::uint32_t peer = dev.cloud_ip;
      std::uint32_t best = 0;
      double size_sum = 0.0;
      peer_counts.clear();
      for (std::size_t i = 0; i < lane.size();) {
        const auto remote_of = [&](std::size_t k) {
          return up ? lane[k]->dst_ip : lane[k]->src_ip;
        };
        const auto remote = remote_of(i);
        std::uint32_t stretch = 0;
        for (; i < lane.size() && remote_of(i) == remote; ++i, ++stretch) {
          size_sum += lane[i]->size_bytes;
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

      // Every lane draws its phase (device desynchronization), in the
      // fixed roster × direction order, so the stream is reproducible.
      const double phase = rng.uniform(0.0, lane_slot_s);

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
        const double t = phase + static_cast<double>(slot) * lane_slot_s;
        if (t >= duration_s) break;
        while (next < lane.size() && lane[next]->timestamp_s <= t) {
          ring[(head + queued++) % ring.size()] = lane[next++];
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
      while (next < lane.size()) emit_at_real_time(*lane[next++], slots);

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
      if (up) up_end = runs.size();
    }
    merge_sorted_tail(runs, up_end);  // the down lane into the up lane
    shaped_bytes += total_bytes(runs);
  }
  out.added_bytes = shaped_bytes - raw_bytes;
  return out;
}

Emission StochasticCoverTraffic::emit(const RoutedHome& home,
                                      double intensity, Rng& rng) const {
  const double duration_s = home.duration_s();
  Emission out = blank_emission(home);
  const double rate = intensity * kMaxCoverRatePerS;
  for (std::size_t d = 0; d < out.devices.size(); ++d) {
    const auto& dev = home.home().devices[d];
    auto& cover = out.devices[d].packets;
    // Exponential-gap exchanges to random *other-vendor* cloud blocks:
    // widens distinct_remotes, udp/up fractions, and the IAT marginals.
    double t = rng.exponential(rate);
    while (t < duration_s) {
      const auto cloud = make_ip(
          52, 20 + static_cast<int>(rng.uniform_int(0, kNumDeviceTypes - 1)),
          0, static_cast<int>(rng.uniform_int(1, 250)));
      const int up_bytes = static_cast<int>(rng.uniform_int(80, 1200));
      const int down_bytes = static_cast<int>(rng.uniform_int(80, kMtu));
      cover.push_back(Packet{t, dev.ip, cloud, kCoverSrcPort, 443,
                             Protocol::kTcp, up_bytes});
      const double reply = t + rng.uniform(0.01, 0.2);
      if (reply < duration_s) {
        cover.push_back(Packet{reply, cloud, dev.ip, 443, kCoverSrcPort,
                               Protocol::kTcp, down_bytes});
        out.added_bytes += down_bytes;
      }
      out.added_bytes += up_bytes;
      t += rng.exponential(rate);
    }
    // Requests are in time order; a reply can land after the next request.
    merge_sorted_tail(cover, 0);
  }
  return out;
}

Emission DecoyFlows::emit(const RoutedHome& home, double intensity,
                          Rng& rng) const {
  const double duration_s = home.duration_s();
  Emission out = blank_emission(home);
  for (std::size_t d = 0; d < out.devices.size(); ++d) {
    const auto& dev = home.home().devices[d];
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

    auto& packets = out.devices[d].packets;
    simulate_device_append(decoy, duration_s, rng, packets);
    // Intensity thins the decoy stream per packet (drawn in append order,
    // so the kept subset is reproducible).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (rng.bernoulli(intensity)) packets[kept++] = packets[i];
    }
    packets.resize(kept);
    for (const auto& p : packets) out.added_bytes += p.size_bytes;
    merge_sorted_tail(packets, 0);  // the decoy's processes, interleaved
  }
  return out;
}

Emission VpnAggregation::emit(const RoutedHome& home, double intensity,
                              Rng& rng) const {
  (void)rng;  // tunnel membership and rewriting are fully deterministic
  const std::uint32_t router = kDefaultRouterIp;
  const std::uint32_t concentrator = make_ip(198, 18, 0, 1);
  // The tunnel's LAN end is the router: a roster device at that address
  // would be credited with every tunneled device's traffic.
  PMIOT_CHECK(home.slots()[router] < 0,
              "vpn: a roster device holds the router's address");

  // The first ceil(θ·N) roster devices are tunneled.
  const auto& roster = home.home().devices;
  const auto tunneled_count = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(roster.size()),
      std::ceil(intensity * static_cast<double>(roster.size()))));
  const auto esp_size = [](int size_bytes) {
    return 16 * ((size_bytes + kVpnOverheadBytes + 15) / 16);
  };

  // A tunneled device's WAN packets become router<->concentrator UDP 4500
  // packets at the same times, which the WAN observer attributes to no
  // roster device; everyone else's pass through.
  Emission out = blank_emission(home);
  for (std::size_t d = 0; d < tunneled_count; ++d) {
    auto& device = out.devices[d];
    device.raw = DeviceEmission::Raw::kDropped;
    const auto stream = home.stream(d);
    device.packets.reserve(stream.size());
    for (const auto& p : stream) {
      const int size = esp_size(p.size_bytes);
      if (p.src_ip == roster[d].ip) {
        device.packets.push_back(Packet{p.timestamp_s, router, concentrator,
                                        kVpnPort, kVpnPort, Protocol::kUdp,
                                        size});
      } else {
        device.packets.push_back(Packet{p.timestamp_s, concentrator, router,
                                        kVpnPort, kVpnPort, Protocol::kUdp,
                                        size});
      }
      out.added_bytes += size - p.size_bytes;
    }
  }
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
