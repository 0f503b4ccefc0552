#include "net/fingerprint.h"

#include "common/error.h"
#include "net/window_accumulator.h"

namespace pmiot::net {

ml::Dataset build_fingerprint_dataset(const FingerprintOptions& options,
                                      Rng& rng) {
  PMIOT_CHECK(options.instances_per_type >= 1, "need instances");
  // Simulate a whole home rather than isolated devices: in deployment the
  // gateway sees hub polling and other cross-device chatter inside every
  // device's window, so training must too: each device is windowed from
  // its own stream and what its peers' streams send it.
  const auto home = simulate_home_streams(options.instances_per_type,
                                          options.duration_s, rng);
  DeviceSlots slots;
  for (const auto& device : home.devices) slots.add(device.ip);
  PeerQueues peers;
  peers.reset(home.devices.size());
  for (std::size_t e = 0; e < home.devices.size(); ++e) {
    peers.add_stream(slots, e, home.streams[e]);
  }
  ml::Dataset data;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    WindowAccumulator accumulator(home.devices[d].ip, options.window_s);
    peers.feed(d, home.streams[d], accumulator);
    for (auto& row : accumulator.finish(options.duration_s)) {
      data.append(std::move(row.features),
                  static_cast<int>(home.devices[d].type));
    }
  }
  data.validate();
  return data;
}

}  // namespace pmiot::net
