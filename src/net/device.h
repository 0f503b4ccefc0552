// IoT device traffic behaviour models (paper §IV).
//
// Each commercial device class has a recognizable network personality —
// heartbeat cadence, telemetry size, streaming behaviour, event bursts, and
// which cloud endpoints it talks to. These models generate packet streams
// with those personalities (the substitution for capturing real devices
// with libpcap), plus compromised variants: a LAN scanner, a DDoS bot
// (the Mirai-style behaviour the paper cites), and a data exfiltrator that
// passively monitors and uploads what it sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/packet.h"

namespace pmiot::net {

enum class DeviceType : int {
  kCamera = 0,
  kThermostat,
  kSmartPlug,
  kHub,
  kSmartTv,
  kSpeaker,
  kLightbulb,
  kDoorLock,
};

inline constexpr int kNumDeviceTypes = 8;
const char* to_string(DeviceType type);

/// How a compromised device misbehaves.
enum class Infection {
  kNone = 0,
  kScanner,      ///< probes LAN + Internet addresses for open services
  kDdosBot,      ///< floods an external victim in bursts
  kExfiltrator,  ///< steady bulk upload of sniffed data to a foreign server
};

/// A device instance's behavioural parameters. Built by `make_device`,
/// which randomizes within the class's typical ranges so instances differ.
struct DeviceProfile {
  DeviceType type = DeviceType::kSmartPlug;
  std::string name;
  std::uint32_t ip = 0;        ///< LAN address
  std::uint32_t cloud_ip = 0;  ///< vendor cloud endpoint

  double heartbeat_period_s = 60.0;
  int heartbeat_up_bytes = 120;
  int heartbeat_down_bytes = 90;

  double telemetry_period_s = 0.0;  ///< 0 = none
  int telemetry_bytes = 0;

  double event_rate_per_hour = 0.0;
  int event_bytes_min = 0;
  int event_bytes_max = 0;

  double stream_pkt_per_s = 0.0;  ///< continuous media stream
  int stream_pkt_bytes = 0;
  bool stream_upstream = true;  ///< camera uploads; TV downloads

  double lan_chatter_period_s = 0.0;  ///< hub polls local devices

  double dns_rate_per_hour = 2.0;

  Infection infection = Infection::kNone;
  double infection_start_s = 0.0;
};

/// Builds a randomized instance of a device class. `instance` picks the
/// LAN address (10.0.0.10+instance) and flavors the parameters.
DeviceProfile make_device(DeviceType type, int instance, Rng& rng);

/// Generates the device's packets over [0, duration_s), time-sorted.
std::vector<Packet> simulate_device(const DeviceProfile& profile,
                                    double duration_s, Rng& rng);

/// Allocation-reusing variant: appends the device's packets to `out` in
/// generation order (NOT time-sorted; `out` is not cleared). Draws exactly
/// the same RNG stream as `simulate_device`, which is this append plus a
/// stable time-sort of the appended suffix — callers that batch several
/// devices into one arena sort the suffixes themselves.
void simulate_device_append(const DeviceProfile& profile, double duration_s,
                            Rng& rng, std::vector<Packet>& out);

/// A whole home drawn device by device: the roster and, per roster
/// device, the packets it emits, time-sorted.
// pmiot: sensitive — every device's packets.
struct DeviceStreams {
  std::vector<DeviceProfile> devices;
  std::vector<std::vector<Packet>> streams;  ///< roster order
};

/// Simulates `instances_per_type` of every device type for `duration_s`,
/// each instance's profile then its packets from `rng`, type after type.
DeviceStreams simulate_home_streams(int instances_per_type, double duration_s,
                                    Rng& rng);

/// A whole home: one or more instances of each type, merged & time-sorted.
struct HomeNetwork {
  std::vector<DeviceProfile> devices;
  std::vector<Packet> packets;
};

/// `simulate_home_streams`, concatenated in roster order and `sort_by_time`d.
HomeNetwork simulate_home_network(int instances_per_type, double duration_s,
                                  Rng& rng);

}  // namespace pmiot::net
