#include "campaign/net_axis.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "campaign/config_text.h"
#include "common/error.h"

namespace pmiot::campaign {

namespace {

constexpr const char* kWhat = "net arena config";

using text::fmt_double;
using text::join;

void validate(const NetArenaConfig& config) {
  PMIOT_CHECK(!config.defenses.empty(), "net arena needs >= 1 defense");
  PMIOT_CHECK(!config.intensities.empty(), "net arena needs >= 1 intensity");
  for (double i : config.intensities) {
    PMIOT_CHECK(i >= 0.0 && i <= 1.0, "intensities must lie in [0, 1]");
  }
  PMIOT_CHECK(config.train_instances_per_type >= 1 &&
                  config.test_instances_per_type >= 1,
              "net arena needs >= 1 instance per device type");
  PMIOT_CHECK(config.window_s > 0.0 && config.duration_s >= config.window_s,
              "net arena needs at least one full window");
}

}  // namespace

NetArenaConfig parse_net_config(const std::string& text) {
  NetArenaConfig config;
  text::for_each_entry(text, kWhat, [&](const std::string& key,
                                        const std::string& value) {
    if (key == "defenses") {
      config.defenses = text::split_list(value, kWhat);
    } else if (key == "attacks") {
      config.attacks = text::split_list(value, kWhat);
    } else if (key == "intensities") {
      config.intensities = text::parse_doubles(value, kWhat);
    } else if (key == "train_instances") {
      config.train_instances_per_type =
          static_cast<int>(text::parse_u64(value, kWhat));
    } else if (key == "test_instances") {
      config.test_instances_per_type =
          static_cast<int>(text::parse_u64(value, kWhat));
    } else if (key == "duration_s") {
      config.duration_s = text::parse_double(value, kWhat);
    } else if (key == "window_s") {
      config.window_s = text::parse_double(value, kWhat);
    } else if (key == "seed") {
      config.base_seed = text::parse_u64(value, kWhat);
    } else {
      PMIOT_CHECK(false, "unknown net arena config key: " + key);
    }
  });
  validate(config);
  return config;
}

std::string canonical_net_text(const NetArenaConfig& config) {
  std::ostringstream os;
  os << "attacks = " << join(config.attacks) << '\n';
  os << "defenses = " << join(config.defenses) << '\n';
  os << "duration_s = " << fmt_double(config.duration_s) << '\n';
  os << "intensities = " << join(config.intensities) << '\n';
  os << "seed = " << config.base_seed << '\n';
  os << "test_instances = " << config.test_instances_per_type << '\n';
  os << "train_instances = " << config.train_instances_per_type << '\n';
  os << "window_s = " << fmt_double(config.window_s) << '\n';
  return os.str();
}

std::uint64_t net_config_hash(const NetArenaConfig& config) {
  return text::fnv1a64(canonical_net_text(config));
}

net::ArenaOptions to_arena_options(const NetArenaConfig& config) {
  validate(config);
  net::ArenaOptions options;
  options.defenses = config.defenses;
  options.attacks = config.attacks;
  options.intensities = config.intensities;
  options.train_instances_per_type = config.train_instances_per_type;
  options.test_instances_per_type = config.test_instances_per_type;
  options.duration_s = config.duration_s;
  options.window_s = config.window_s;
  options.seed = config.base_seed;
  return options;
}

void write_net_frontier_csv(std::ostream& os, const NetArenaConfig& config,
                            const net::ArenaResult& result) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(net_config_hash(config)));
  os << "# net arena config hash " << hash << '\n';
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
