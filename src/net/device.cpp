#include "net/device.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"

namespace pmiot::net {
namespace {

constexpr int kMtu = 1400;
constexpr std::uint16_t kTlsPort = 443;
constexpr std::uint16_t kDnsPort = 53;

std::uint32_t lan_router() { return make_ip(10, 0, 0, 1); }

/// Appends packets to a capture through a small local buffer, so the
/// generation loops store packets instead of calling the vector's growth
/// path for each one. Call `flush` before anyone reads the capture.
class PacketSink {
 public:
  explicit PacketSink(std::vector<Packet>& out) : out_(out) {}

  void push(const Packet& p) {
    buffer_[size_++] = p;
    if (size_ == buffer_.size()) flush();
  }

  void flush() {
    out_.insert(out_.end(), buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(size_));
    size_ = 0;
  }

 private:
  std::vector<Packet>& out_;
  std::array<Packet, 64> buffer_;
  std::size_t size_ = 0;
};

/// Emits a request/response exchange of the given byte sizes (split into
/// MTU packets 10 ms apart) between the device and a remote endpoint.
void emit_exchange(PacketSink& packets, double ts, std::uint32_t dev,
                   std::uint32_t remote, std::uint16_t remote_port,
                   Protocol proto, int up_bytes, int down_bytes,
                   std::uint16_t src_port) {
  double t = ts;
  for (int left = up_bytes; left > 0; left -= kMtu) {
    packets.push(Packet{t, dev, remote, src_port, remote_port, proto,
                        std::min(left, kMtu)});
    t += 0.01;
  }
  for (int left = down_bytes; left > 0; left -= kMtu) {
    packets.push(Packet{t, remote, dev, remote_port, src_port, proto,
                        std::min(left, kMtu)});
    t += 0.01;
  }
}

}  // namespace

const char* to_string(DeviceType type) {
  switch (type) {
    case DeviceType::kCamera: return "camera";
    case DeviceType::kThermostat: return "thermostat";
    case DeviceType::kSmartPlug: return "smart-plug";
    case DeviceType::kHub: return "hub";
    case DeviceType::kSmartTv: return "smart-tv";
    case DeviceType::kSpeaker: return "speaker";
    case DeviceType::kLightbulb: return "lightbulb";
    case DeviceType::kDoorLock: return "door-lock";
  }
  return "unknown";
}

DeviceProfile make_device(DeviceType type, int instance, Rng& rng) {
  PMIOT_CHECK(instance >= 0 && instance < kMaxDeviceInstances,
              "instance out of range");
  DeviceProfile p;
  p.type = type;
  p.name = std::string(to_string(type)) + "-" + std::to_string(instance);
  p.ip = make_ip(10, 0, 0, 10 + instance);
  // Each vendor has its own cloud block; instances of a type share it.
  p.cloud_ip = make_ip(52, 20 + static_cast<int>(type), 0,
                       static_cast<int>(rng.uniform_int(1, 250)));

  switch (type) {
    case DeviceType::kCamera:
      p.heartbeat_period_s = rng.uniform(25, 40);
      p.stream_pkt_per_s = rng.uniform(3.0, 6.0);
      p.stream_pkt_bytes = 1000;
      p.stream_upstream = true;
      p.event_rate_per_hour = rng.uniform(2, 6);  // motion clips
      p.event_bytes_min = 300'000;
      p.event_bytes_max = 2'000'000;
      p.dns_rate_per_hour = rng.uniform(1, 4);
      break;
    case DeviceType::kThermostat:
      p.heartbeat_period_s = rng.uniform(55, 70);
      p.telemetry_period_s = rng.uniform(280, 320);
      p.telemetry_bytes = 600;
      p.event_rate_per_hour = rng.uniform(0.2, 1.0);
      p.event_bytes_min = 300;
      p.event_bytes_max = 1'500;
      break;
    case DeviceType::kSmartPlug:
      p.heartbeat_period_s = rng.uniform(28, 65);
      p.heartbeat_up_bytes = 90;
      p.heartbeat_down_bytes = 70;
      p.telemetry_period_s = rng.uniform(55, 70);
      p.telemetry_bytes = 200;
      p.event_rate_per_hour = rng.uniform(0.2, 2.0);
      p.event_bytes_min = 150;
      p.event_bytes_max = 400;
      break;
    case DeviceType::kHub:
      p.heartbeat_period_s = rng.uniform(14, 30);
      p.telemetry_period_s = rng.uniform(110, 130);
      p.telemetry_bytes = 1'200;
      p.lan_chatter_period_s = rng.uniform(8, 20);
      p.dns_rate_per_hour = rng.uniform(4, 10);
      break;
    case DeviceType::kSmartTv:
      p.heartbeat_period_s = rng.uniform(50, 90);
      p.stream_pkt_per_s = rng.uniform(8.0, 15.0);
      p.stream_pkt_bytes = kMtu;
      p.stream_upstream = false;  // video comes down
      p.event_rate_per_hour = rng.uniform(1, 3);  // app traffic
      p.event_bytes_min = 5'000;
      p.event_bytes_max = 100'000;
      p.dns_rate_per_hour = rng.uniform(6, 20);
      break;
    case DeviceType::kSpeaker:
      p.heartbeat_period_s = rng.uniform(40, 70);
      p.event_rate_per_hour = rng.uniform(1, 4);  // voice queries / audio
      p.event_bytes_min = 30'000;
      p.event_bytes_max = 400'000;
      p.dns_rate_per_hour = rng.uniform(3, 8);
      break;
    case DeviceType::kLightbulb:
      p.heartbeat_period_s = rng.uniform(45, 90);
      p.heartbeat_up_bytes = 70;
      p.heartbeat_down_bytes = 60;
      p.event_rate_per_hour = rng.uniform(0.5, 3.0);
      p.event_bytes_min = 100;
      p.event_bytes_max = 300;
      p.dns_rate_per_hour = rng.uniform(0.2, 1.0);
      break;
    case DeviceType::kDoorLock:
      p.heartbeat_period_s = rng.uniform(250, 350);
      p.event_rate_per_hour = rng.uniform(0.1, 0.8);
      p.event_bytes_min = 200;
      p.event_bytes_max = 800;
      p.dns_rate_per_hour = rng.uniform(0.1, 0.5);
      break;
  }
  return p;
}

void simulate_device_append(const DeviceProfile& profile, double duration_s,
                            Rng& rng, std::vector<Packet>& out) {
  PMIOT_CHECK(duration_s > 0.0, "duration must be positive");
  PMIOT_CHECK(is_lan(profile.ip), "device must have a LAN address");
  PacketSink packets(out);
  const std::uint16_t src_port =
      static_cast<std::uint16_t>(40000 + (profile.ip & 0xff));

  // Heartbeats / keepalives.
  for (double t = rng.uniform(0.0, profile.heartbeat_period_s);
       t < duration_s;
       t += std::max(1.0, rng.normal(profile.heartbeat_period_s,
                                     0.05 * profile.heartbeat_period_s))) {
    emit_exchange(packets, t, profile.ip, profile.cloud_ip, kTlsPort,
                  Protocol::kTcp, profile.heartbeat_up_bytes,
                  profile.heartbeat_down_bytes, src_port);
  }

  // Periodic telemetry.
  if (profile.telemetry_period_s > 0.0) {
    for (double t = rng.uniform(0.0, profile.telemetry_period_s);
         t < duration_s;
         t += std::max(1.0, rng.normal(profile.telemetry_period_s,
                                       0.1 * profile.telemetry_period_s))) {
      emit_exchange(packets, t, profile.ip, profile.cloud_ip, kTlsPort,
                    Protocol::kTcp, profile.telemetry_bytes, 200, src_port);
    }
  }

  // Event bursts (motion clips, voice queries, app usage, lock events).
  if (profile.event_rate_per_hour > 0.0) {
    double t = rng.exponential(profile.event_rate_per_hour / 3600.0);
    while (t < duration_s) {
      const int bytes = static_cast<int>(
          rng.uniform_int(profile.event_bytes_min,
                          std::max(profile.event_bytes_min,
                                   profile.event_bytes_max)));
      emit_exchange(packets, t, profile.ip, profile.cloud_ip, kTlsPort,
                    Protocol::kTcp, bytes, bytes / 20 + 100, src_port);
      t += rng.exponential(profile.event_rate_per_hour / 3600.0);
    }
  }

  // Continuous media stream.
  if (profile.stream_pkt_per_s > 0.0) {
    const double gap = 1.0 / profile.stream_pkt_per_s;
    for (double t = rng.uniform(0.0, gap); t < duration_s;
         t += rng.uniform(0.5 * gap, 1.5 * gap)) {
      if (profile.stream_upstream) {
        packets.push(Packet{t, profile.ip, profile.cloud_ip, src_port, kTlsPort,
                            Protocol::kUdp, profile.stream_pkt_bytes});
      } else {
        packets.push(Packet{t, profile.cloud_ip, profile.ip, kTlsPort, src_port,
                            Protocol::kUdp, profile.stream_pkt_bytes});
      }
    }
  }

  // Hub: local polling of other LAN devices.
  if (profile.lan_chatter_period_s > 0.0) {
    for (double t = rng.uniform(0.0, profile.lan_chatter_period_s);
         t < duration_s; t += rng.uniform(0.5, 1.5) *
                              profile.lan_chatter_period_s) {
      const auto peer =
          make_ip(10, 0, 0, static_cast<int>(rng.uniform_int(10, 40)));
      if (peer == profile.ip) continue;
      emit_exchange(packets, t, profile.ip, peer, 8883, Protocol::kTcp, 150,
                    120, src_port);
    }
  }

  // DNS lookups to the router's resolver.
  if (profile.dns_rate_per_hour > 0.0) {
    double t = rng.exponential(profile.dns_rate_per_hour / 3600.0);
    while (t < duration_s) {
      emit_exchange(packets, t, profile.ip, lan_router(), kDnsPort,
                    Protocol::kUdp, 60, 140, src_port);
      t += rng.exponential(profile.dns_rate_per_hour / 3600.0);
    }
  }

  // Compromised behaviour, once the infection activates.
  if (profile.infection == Infection::kScanner) {
    for (double t = std::max(0.0, profile.infection_start_s); t < duration_s;
         t += rng.exponential(8.0)) {  // ~8 probes/second
      const bool local = rng.bernoulli(0.5);
      const auto target =
          local ? make_ip(10, 0, 0, static_cast<int>(rng.uniform_int(2, 254)))
                : make_ip(static_cast<int>(rng.uniform_int(11, 220)),
                          static_cast<int>(rng.uniform_int(0, 255)),
                          static_cast<int>(rng.uniform_int(0, 255)),
                          static_cast<int>(rng.uniform_int(1, 254)));
      const std::uint16_t port =
          rng.bernoulli(0.5)
              ? static_cast<std::uint16_t>(rng.uniform_int(20, 1024))
              : 23;  // telnet, the classic IoT botnet door
      packets.push(
          Packet{t, profile.ip, target, src_port, port, Protocol::kTcp, 60});
    }
  } else if (profile.infection == Infection::kDdosBot) {
    // Bursts: 30-120 s of ~40 pkt/s UDP flood toward one victim.
    const auto victim = make_ip(203, 0, 113, 7);
    double t = std::max(0.0, profile.infection_start_s);
    while (t < duration_s) {
      const double burst_end = t + rng.uniform(30.0, 120.0);
      for (double bt = t; bt < burst_end && bt < duration_s;
           bt += rng.exponential(40.0)) {
        const auto port =
            static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
        packets.push(Packet{bt, profile.ip, victim, src_port, port,
                            Protocol::kUdp, 600});
      }
      t = burst_end + rng.uniform(120.0, 600.0);  // idle between bursts
    }
  } else if (profile.infection == Infection::kExfiltrator) {
    const auto sink = make_ip(198, 51, 100, 23);
    const double gap = 0.15;  // ~7 MTU packets/second, continuous upload
    for (double t = std::max(0.0, profile.infection_start_s); t < duration_s;
         t += rng.uniform(0.5 * gap, 1.5 * gap)) {
      packets.push(
          Packet{t, profile.ip, sink, src_port, 4444, Protocol::kTcp, kMtu});
    }
  }
  packets.flush();
}

void simulate_device_into(const DeviceProfile& profile, double duration_s,
                          double join_s, double leave_s, Rng& rng,
                          std::vector<Packet>& out, SortScratch& sort) {
  out.clear();
  simulate_device_append(profile, duration_s, rng, out);
  if (join_s > 0.0 || leave_s < duration_s) {
    std::erase_if(out, [&](const Packet& p) {
      return p.timestamp_s < join_s || p.timestamp_s >= leave_s;
    });
  }
  sort_by_time(out, sort);
}

std::vector<Packet> simulate_device(const DeviceProfile& profile,
                                    double duration_s, Rng& rng) {
  std::vector<Packet> out;
  SortScratch sort;
  simulate_device_into(profile, duration_s, 0.0, duration_s, rng, out, sort);
  return out;
}

DeviceStreams simulate_home_streams(int instances_per_type, double duration_s,
                                    Rng& rng) {
  PMIOT_CHECK(instances_per_type >= 1, "need at least one instance per type");
  DeviceStreams home;
  SortScratch sort;
  int instance = 0;
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    for (int i = 0; i < instances_per_type; ++i) {
      auto profile = make_device(static_cast<DeviceType>(t), instance++, rng);
      simulate_device_into(profile, duration_s, 0.0, duration_s, rng,
                           home.streams.emplace_back(), sort);
      home.devices.push_back(std::move(profile));
    }
  }
  return home;
}

HomeNetwork simulate_home_network(int instances_per_type, double duration_s,
                                  Rng& rng) {
  auto streams = simulate_home_streams(instances_per_type, duration_s, rng);
  HomeNetwork home{std::move(streams.devices), {}};
  SortScratch sort;
  merge_streams(streams.streams, home.packets, sort);
  return home;
}

}  // namespace pmiot::net
