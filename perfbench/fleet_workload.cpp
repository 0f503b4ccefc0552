// `fleet`: one `FleetGateway::process_fleet` pass over shard-seeded homes
// (default 600 s horizon, 120 s windows, churn, 25 % infected homes). The
// fingerprint forest and the anomaly detector are trained in setup.
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fleet/fleet_gateway.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "net/anomaly.h"
#include "net/fingerprint.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pmiot;

constexpr std::size_t kHomes = 2000;
constexpr std::size_t kWarmupHomes = 64;

net::SmartGateway home_gateway(const ml::Classifier& classifier,
                               const net::AnomalyDetector& detector,
                               const fleet::FleetOptions& options,
                               const fleet::HomeCapture& home) {
  net::SmartGateway gateway(classifier, detector, options.gateway);
  for (const auto& device : home.devices) {
    gateway.register_device(device.profile.ip, device.profile.name);
  }
  return gateway;
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* item_name() const override { return "packets"; }

  void setup() override {
    options_.homes = kHomes;
    options_.base_seed = seed_;
    // Models trained on windows as long as the gateway's (the same recipe
    // as bench/fleet_gateway).
    Rng rng(3);
    net::FingerprintOptions fingerprint;
    fingerprint.window_s = options_.gateway.window_s;
    const auto data = net::build_fingerprint_dataset(fingerprint, rng);
    classifier_.fit(data);
    detector_.fit(data);
    gateway_ = std::make_unique<fleet::FleetGateway>(classifier_, detector_,
                                                     options_);
    auto warmup = options_;
    warmup.homes = kWarmupHomes;
    (void)fleet::FleetGateway(classifier_, detector_, warmup).process_fleet();
  }

  double run_pass(OpTally& tally) override {
    fleet::FleetReport report;
    if (!run_ops(tally, options_.homes,
                 [&] { report = gateway_->process_fleet(); })) {
      return 0.0;
    }
    const double packets = static_cast<double>(report.packets);
    if (!reference_) {
      reference_ = std::make_unique<fleet::FleetReport>(std::move(report));
    } else if (const auto diff = fleet::describe_divergence(*reference_,
                                                            report);
               !diff.empty()) {
      pass_divergence_ = "passes differ: " + diff;
    }
    return packets;
  }

  std::string check() override {
    if (!pass_divergence_.empty()) return pass_divergence_;
    if (!reference_) return "no pass completed";
    par::ThreadPool serial(1);
    const par::ScopedPoolOverride width_one(serial);
    const auto oracle = gateway_->process_fleet();
    if (auto diff = fleet::describe_divergence(*reference_, oracle);
        !diff.empty()) {
      return "fleet pass differs from its width-1 run: " + diff;
    }
    if (reference_->quarantined_devices == 0) {
      return "no device quarantined across the fleet";
    }
    return "";
  }

  std::string traced_pass(SpanRecorder& rec, LayerMetrics& metrics,
                          OpTally& tally) override {
    const auto& o = gateway_->options();
    const std::size_t n = o.homes;
    struct HomeScratch {
      std::vector<net::DeviceRows> rows;
      std::vector<net::PolicyCounts> counts;
      std::uint64_t packets = 0;
      std::size_t devices = 0;
      std::size_t windows = 0;
    };
    std::vector<HomeScratch> scratch(n);
    fleet::FleetReport report;
    double batch_wall_s = 0.0;
    std::size_t batch_rows = 0;

    const bool ok = run_ops(tally, n, [&] {
      {
        ScopedSpan phase(rec, "common.par.shard", Layer::kPar);
        const auto parent = phase.id();
        par::parallel_for(0, n, [&](std::size_t h) {
          ScopedSpan request(rec, "fleet.home", Layer::kGroup, h, parent);
          static thread_local fleet::HomeCapture home;
          static thread_local fleet::HomeArena arena;
          {
            ScopedSpan s(rec, "fleet.make_home", Layer::kFleet);
            fleet::make_home_into(o, h, home, arena);
          }
          const auto gateway = home_gateway(classifier_, detector_, o, home);
          auto& out = scratch[h];
          {
            ScopedSpan s(rec, "net.extract_rows", Layer::kNet);
            out.rows = gateway.extract_rows(home.packets, o.duration_s);
          }
          {
            ScopedSpan s(rec, "net.policy_counts", Layer::kNet);
            out.counts = gateway.policy_counts(home.packets, o.duration_s);
          }
          out.packets = home.packets.size();
          out.devices = home.devices.size();
          for (const auto& device : out.rows) out.windows += device.rows.size();
        });
      }

      std::vector<std::vector<std::vector<int>>> predictions(n);
      {
        const double t0 = rec.now();
        ScopedSpan batch(rec, "fleet.batch", Layer::kGroup);
        ml::Dataset all;
        {
          ScopedSpan s(rec, "fleet.batch_assemble", Layer::kFleet);
          for (const auto& home : scratch) {
            for (const auto& device : home.rows) {
              for (const auto& row : device.rows) all.append(row.features, 0);
            }
          }
        }
        std::vector<int> flat;
        {
          ScopedSpan s(rec, "ml.predict_all", Layer::kMl);
          if (all.size() > 0) flat = classifier_.predict_all(all);
        }
        {
          ScopedSpan s(rec, "fleet.batch_scatter", Layer::kFleet);
          std::size_t next = 0;
          for (std::size_t h = 0; h < n; ++h) {
            predictions[h].resize(scratch[h].rows.size());
            for (std::size_t d = 0; d < scratch[h].rows.size(); ++d) {
              const auto rows = scratch[h].rows[d].rows.size();
              const auto first = flat.begin() + static_cast<std::ptrdiff_t>(next);
              predictions[h][d].assign(
                  first, first + static_cast<std::ptrdiff_t>(rows));
              next += rows;
            }
          }
        }
        batch_rows = all.size();
        batch_wall_s = rec.now() - t0;
      }

      report.homes.resize(n);
      {
        ScopedSpan phase(rec, "common.par.replay", Layer::kPar);
        const auto parent = phase.id();
        par::parallel_for(0, n, [&](std::size_t h) {
          ScopedSpan request(rec, "fleet.home", Layer::kGroup, h, parent);
          net::SmartGateway gateway(classifier_, detector_, o.gateway);
          auto& out = report.homes[h];
          {
            ScopedSpan s(rec, "net.replay", Layer::kNet);
            out.report = gateway.replay(scratch[h].rows, predictions[h],
                                        scratch[h].counts, o.duration_s);
          }
          out.devices = scratch[h].devices;
          out.packets = scratch[h].packets;
        });
      }

      ScopedSpan s(rec, "fleet.accumulate", Layer::kFleet);
      report.windows_classified = batch_rows;
      for (const auto& home : report.homes) {
        report.packets += home.packets;
        report.lateral_packets_blocked += home.report.lateral_packets_blocked;
        report.quarantine_packets_dropped +=
            home.report.quarantine_packets_dropped;
        for (const auto& verdict : home.report.verdicts) {
          if (verdict.final_zone == net::Zone::kQuarantined) {
            ++report.quarantined_devices;
          }
        }
      }
    });
    if (!ok) return "traced pass failed: " + tally.first_error;

    std::size_t windows = 0;
    for (const auto& home : scratch) windows += home.windows;
    const auto& spans = rec.spans();
    const auto threads = par::thread_count();
    metrics["net.extract_rows.windows"] = static_cast<double>(windows);
    metrics["ml.predict_all.rows"] = static_cast<double>(batch_rows);
    metrics["fleet.batch_phase.wall_s"] = batch_wall_s;
    metrics["common.par.shard.busy_share"] =
        busy_share(spans, "common.par.shard", threads);
    metrics["common.par.replay.busy_share"] =
        busy_share(spans, "common.par.replay", threads);

    if (!reference_) return "no untraced pass to compare with";
    const auto diff = fleet::describe_divergence(*reference_, report);
    return diff.empty() ? "" : "recomposition differs from process_fleet: " +
                                   diff;
  }

 private:
  std::uint64_t seed_;
  fleet::FleetOptions options_;
  ml::RandomForest classifier_;
  net::AnomalyDetector detector_;
  std::unique_ptr<fleet::FleetGateway> gateway_;
  std::unique_ptr<fleet::FleetReport> reference_;
  std::string pass_divergence_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

}  // namespace perfbench
