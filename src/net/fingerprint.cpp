#include "net/fingerprint.h"

#include "common/error.h"
#include "net/window_accumulator.h"

namespace pmiot::net {

ml::Dataset build_fingerprint_dataset(const FingerprintOptions& options,
                                      Rng& rng) {
  PMIOT_CHECK(options.instances_per_type >= 1, "need instances");
  // Simulate a whole home (merged capture) rather than isolated devices:
  // in deployment the gateway sees hub polling and other cross-device
  // chatter inside every device's window, so training must too.
  const auto home =
      simulate_home_network(options.instances_per_type, options.duration_s,
                            rng);
  // One pass routes each packet to the devices it involves, in capture
  // order: what `windowed_features` on the whole capture reads per device.
  DeviceSlots slots;
  std::vector<WindowAccumulator> accumulators;
  accumulators.reserve(home.devices.size());
  for (const auto& device : home.devices) {
    slots.add(device.ip);
    accumulators.emplace_back(device.ip, options.window_s);
  }
  route_packets(home.packets, slots, accumulators);
  ml::Dataset data;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    for (auto& row : accumulators[d].finish(options.duration_s)) {
      data.append(std::move(row.features),
                  static_cast<int>(home.devices[d].type));
    }
  }
  data.validate();
  return data;
}

}  // namespace pmiot::net
