#include "campaign/net_axis.h"

#include <ostream>
#include <sstream>

#include "campaign/config_text.h"
#include "common/error.h"

namespace pmiot::campaign {

namespace {

constexpr const char* kWhat = "net arena config";

using text::fmt_double;
using text::join;

}  // namespace

net::ArenaOptions parse_net_config(const std::string& text) {
  net::ArenaOptions options;
  text::for_each_entry(text, kWhat, [&](const std::string& key,
                                        const std::string& value) {
    if (key == "defenses") {
      options.defenses = text::split_list(value, kWhat);
    } else if (key == "attacks") {
      options.attacks = text::split_list(value, kWhat);
    } else if (key == "intensities") {
      options.intensities = text::parse_doubles(value, kWhat);
    } else if (key == "train_instances") {
      options.train_instances_per_type = text::parse_int(value, kWhat);
    } else if (key == "test_instances") {
      options.test_instances_per_type = text::parse_int(value, kWhat);
    } else if (key == "duration_s") {
      options.duration_s = text::parse_double(value, kWhat);
    } else if (key == "window_s") {
      options.window_s = text::parse_double(value, kWhat);
    } else if (key == "seed") {
      options.seed = text::parse_u64(value, kWhat);
    } else {
      PMIOT_CHECK(false, "unknown net arena config key: " + key);
    }
  });
  net::validate(options);
  return options;
}

std::string canonical_net_text(const net::ArenaOptions& options) {
  std::ostringstream os;
  os << "attacks = " << join(options.attacks) << '\n';
  os << "defenses = " << join(options.defenses) << '\n';
  os << "duration_s = " << fmt_double(options.duration_s) << '\n';
  os << "intensities = " << join(options.intensities) << '\n';
  os << "seed = " << options.seed << '\n';
  os << "test_instances = " << options.test_instances_per_type << '\n';
  os << "train_instances = " << options.train_instances_per_type << '\n';
  os << "window_s = " << fmt_double(options.window_s) << '\n';
  return os.str();
}

std::uint64_t net_config_hash(const net::ArenaOptions& options) {
  return text::fnv1a64(canonical_net_text(options));
}

void write_net_frontier_csv(std::ostream& os, const net::ArenaOptions& options,
                            const net::ArenaResult& result) {
  os << "# net arena config hash "
     << text::format_hash(net_config_hash(options)) << '\n';
  os << "defense,intensity,added_bytes_fraction,mean_added_latency_s,"
        "naive_mcc,privacy_mcc";
  if (!result.cells.empty()) {
    for (const auto& score : result.cells.front().attacks) {
      os << ",mcc_" << score.attack;
    }
  }
  os << '\n';
  for (const auto& cell : result.cells) {
    os << cell.defense << ',' << fmt_double(cell.intensity) << ','
       << fmt_double(cell.added_bytes_fraction) << ','
       << fmt_double(cell.mean_added_latency_s) << ','
       << fmt_double(cell.naive_mcc) << ',' << fmt_double(cell.privacy_mcc);
    for (const auto& score : cell.attacks) os << ',' << fmt_double(score.mcc);
    os << '\n';
  }
}

}  // namespace pmiot::campaign
