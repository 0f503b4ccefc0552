#include "reference/fleet_oracle.h"

namespace pmiot::reference {

fleet::FleetReport run_fleet_serial(const ml::Classifier& classifier,
                                    const net::AnomalyDetector& detector,
                                    const fleet::FleetOptions& options) {
  fleet::FleetReport report;
  report.homes.resize(options.homes);
  for (std::size_t h = 0; h < options.homes; ++h) {
    const auto home = fleet::make_home(options, h);
    net::SmartGateway gateway(classifier, detector, options.gateway);
    for (const auto& device : home.devices) {
      gateway.register_device(device.profile.ip, device.profile.name);
    }
    auto& out = report.homes[h];
    out.report = gateway.process(home.packets, options.duration_s);
    out.devices = home.devices.size();
    out.packets = home.packets.size();

    report.packets += out.packets;
    report.lateral_packets_blocked += out.report.lateral_packets_blocked;
    report.quarantine_packets_dropped += out.report.quarantine_packets_dropped;
    for (const auto& verdict : out.report.verdicts) {
      if (verdict.final_zone == net::Zone::kQuarantined) {
        ++report.quarantined_devices;
      }
    }
  }
  return report;
}

}  // namespace pmiot::reference
