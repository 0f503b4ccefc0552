#include "net/features.h"

#include "common/error.h"
#include "net/packet.h"
#include "net/window_accumulator.h"

namespace pmiot::net {

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      "pkt_rate_up",        // packets/s device -> elsewhere
      "pkt_rate_down",      // packets/s elsewhere -> device
      "byte_rate_up",       // bytes/s up
      "byte_rate_down",     // bytes/s down
      "mean_pkt_up",        // mean upstream packet size
      "std_pkt_up",         // stddev of upstream packet size
      "mean_pkt_down",      // mean downstream packet size
      "up_fraction",        // upstream bytes / total bytes
      "udp_fraction",       // udp packets / all packets
      "distinct_remotes",   // distinct non-LAN peers
      "distinct_ports",     // distinct destination ports (upstream)
      "lan_fraction",       // packets to/from other LAN hosts
      "iat_median",         // median upstream inter-arrival time
      "iat_cv",             // coefficient of variation of upstream IATs
      "burst_max_rate",     // max packets/s over any 10 s bucket (the last
                            // bucket is normalized by its actual width)
      "dns_rate",           // DNS queries per minute (upstream packets to
                            // port 53; one per query/response exchange)
      "flow_count",         // distinct flows (5-tuple, 120 s idle timeout)
  };
  return names;
}

void check_feature_layout() {
  const auto& names = feature_names();
  PMIOT_ASSERT(names.size() > kFeaturePktRateDown,
               "feature vector narrower than the policy indices");
  PMIOT_ASSERT(names[kFeaturePktRateUp] == "pkt_rate_up",
               "kFeaturePktRateUp no longer names pkt_rate_up");
  PMIOT_ASSERT(names[kFeaturePktRateDown] == "pkt_rate_down",
               "kFeaturePktRateDown no longer names pkt_rate_down");
}

std::vector<WindowRow> windowed_features(std::span<const Packet> packets,
                                         std::uint32_t device_ip,
                                         double duration_s, double window_s,
                                         bool keep_idle_windows,
                                         std::uint32_t router_ip) {
  PMIOT_CHECK(window_s > 0.0 && duration_s >= window_s,
              "need at least one full window");
  WindowAccumulator accumulator(device_ip, window_s, keep_idle_windows,
                                router_ip);
  for (const auto& p : packets) accumulator.add(p);
  return accumulator.finish(duration_s);
}

}  // namespace pmiot::net
