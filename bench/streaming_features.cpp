// Hot-loop regression bench for the streaming feature pipeline and the
// battery defense's daily-target computation.
//
//  1. Gateway features: a day-long ~10^6-packet capture cut into 288
//     five-minute windows, extracted two ways: a per-window rescan through
//     `reference::extract_window_features`, and the single-pass
//     `WindowAccumulator` path. The two are verified bitwise identical (a
//     mismatch exits nonzero); the speedup is reported, never gated on.
//  2. Battery daily targets: per-sample recompute of the day's mean load
//     (the old O(samples × samples-per-day) inner loop) vs the hoisted
//     once-per-day computation now used by apply_battery / apply_nill.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "net/features.h"
#include "net/packet.h"
#include "net/window_accumulator.h"
#include "reference/window_features.h"
#include "timeseries/timeseries.h"

using namespace pmiot;

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<net::Packet> day_capture(std::size_t packets, double duration_s,
                                     std::uint32_t device_ip, Rng& rng) {
  std::vector<net::Packet> out;
  out.reserve(packets + packets / 8);
  const auto router = net::make_ip(10, 0, 0, 1);
  std::uint16_t fresh_port = 10000;
  while (out.size() < packets) {
    const double t = rng.uniform(0.0, duration_s);
    const double roll = rng.uniform();
    const auto size = static_cast<int>(rng.uniform_int(40, 1400));
    // IoT traffic mixes a few persistent connections (MQTT, long-lived TLS)
    // with periodic fresh TLS sessions for reports/telemetry, so most
    // packets reuse a small ephemeral-port pool while a quarter open a new
    // flow on a previously unused port.
    std::uint16_t eph;
    if (rng.bernoulli(0.25)) {
      eph = fresh_port;
      fresh_port = fresh_port == 39999 ? 10000 : fresh_port + 1;
    } else {
      eph = static_cast<std::uint16_t>(40000 + rng.uniform_int(0, 7));
    }
    if (roll < 0.40) {  // upstream to one of a few cloud endpoints
      const auto cloud =
          net::make_ip(52, 20, 0, static_cast<int>(rng.uniform_int(1, 6)));
      out.push_back(net::Packet{
          t, device_ip, cloud, eph,
          static_cast<std::uint16_t>(rng.bernoulli(0.7) ? 443 : 8883),
          rng.bernoulli(0.25) ? net::Protocol::kUdp : net::Protocol::kTcp,
          size});
    } else if (roll < 0.75) {  // downstream
      const auto cloud =
          net::make_ip(52, 20, 0, static_cast<int>(rng.uniform_int(1, 6)));
      out.push_back(net::Packet{t, cloud, device_ip, 443, eph,
                                net::Protocol::kTcp, size});
    } else if (roll < 0.85) {  // DNS exchange
      out.push_back(net::Packet{t, device_ip, router, 40000, 53,
                                net::Protocol::kUdp, 60});
      out.push_back(net::Packet{t + 0.05, router, device_ip, 53, 40000,
                                net::Protocol::kUdp, 140});
    } else if (roll < 0.92) {  // LAN chatter
      const auto peer =
          net::make_ip(10, 0, 0, static_cast<int>(rng.uniform_int(11, 40)));
      out.push_back(net::Packet{t, device_ip, peer, 8883, 8883,
                                net::Protocol::kTcp, 150});
    } else {  // other devices' traffic the extractor must skip
      const auto other =
          net::make_ip(10, 0, 0, static_cast<int>(rng.uniform_int(50, 99)));
      out.push_back(net::Packet{t, other, net::make_ip(52, 20, 0, 9), 5000,
                                443, net::Protocol::kTcp, size});
    }
  }
  net::sort_by_time(out);
  return out;
}

}  // namespace

int main() {
  std::cout
      << "==============================================================\n"
         "Streaming gateway features + hoisted battery targets\n"
         "==============================================================\n\n";

  // --- 1. per-window rescan vs single-pass accumulator ---------------------
  const double duration_s = 86400.0;   // one day
  const double window_s = 300.0;       // 288 windows
  const std::size_t num_windows = 288;
  const auto device_ip = net::make_ip(10, 0, 0, 10);
  Rng rng(7);
  const auto packets = day_capture(1'000'000, duration_s, device_ip, rng);
  std::cout << "capture: " << packets.size() << " packets over 24 h, "
            << num_windows << " windows of " << window_s << " s\n\n";

  // Each path is timed best-of-kReps: single-shot timings on a shared
  // machine are noisy.
  constexpr int kReps = 3;

  double rescan_s = 0.0;
  std::vector<net::WindowRow> rescan;
  for (int rep = 0; rep < kReps; ++rep) {
    rescan.clear();
    const auto t0 = Clock::now();
    for (std::size_t w = 0; w < num_windows; ++w) {
      auto f = reference::extract_window_features(
          packets, device_ip, static_cast<double>(w) * window_s,
          static_cast<double>(w + 1) * window_s);
      rescan.push_back(net::WindowRow{w, std::move(f)});
    }
    const auto t1 = Clock::now();
    if (rep == 0 || seconds(t0, t1) < rescan_s) rescan_s = seconds(t0, t1);
  }

  double stream_s = 0.0;
  std::vector<net::WindowRow> streamed;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t1 = Clock::now();
    streamed = net::windowed_features(packets, device_ip, duration_s,
                                      window_s,
                                      /*keep_idle_windows=*/true);
    const auto t2 = Clock::now();
    if (rep == 0 || seconds(t1, t2) < stream_s) stream_s = seconds(t1, t2);
  }

  if (streamed.size() != rescan.size()) {
    std::cerr << "MISMATCH: row counts differ\n";
    return EXIT_FAILURE;
  }
  for (std::size_t w = 0; w < rescan.size(); ++w) {
    for (std::size_t k = 0; k < rescan[w].features.size(); ++k) {
      if (streamed[w].features[k] != rescan[w].features[k]) {
        std::cerr << "MISMATCH at window " << w << " feature "
                  << net::feature_names()[k] << '\n';
        return EXIT_FAILURE;
      }
    }
  }

  Table features({"path", "time (s)", "windows/s"});
  features.add_row()
      .cell("per-window rescan (reference)")
      .cell(rescan_s)
      .cell(static_cast<double>(num_windows) / rescan_s, 1);
  features.add_row()
      .cell("streaming single pass")
      .cell(stream_s)
      .cell(static_cast<double>(num_windows) / stream_s, 1);
  features.print(std::cout,
                 "Feature extraction (rescan and streaming outputs verified "
                 "bitwise equal)");
  const double speedup = rescan_s / stream_s;
  std::cout << "\nstreaming vs per-window rescan: " << format_double(speedup, 1)
            << "x\n\n";

  // --- 2. battery daily-target hoisting ------------------------------------
  const int days = 90;
  ts::TraceMeta meta;
  meta.interval_seconds = 60;
  auto load = ts::make_zero_days(meta, days);
  for (std::size_t t = 0; t < load.size(); ++t) {
    load[t] = 0.3 + 0.2 * rng.uniform() +
              (rng.bernoulli(0.05) ? rng.uniform(0.5, 2.5) : 0.0);
  }
  const auto per_day = load.samples_per_day();

  const auto b0 = Clock::now();
  std::vector<double> naive(load.size());
  for (std::size_t t = 0; t < load.size(); ++t) {
    const std::size_t day_first = (t / per_day) * per_day;
    const std::size_t day_len = std::min(per_day, load.size() - day_first);
    naive[t] = stats::mean(load.values().subspan(day_first, day_len));
  }
  const auto b1 = Clock::now();
  std::vector<double> hoisted(load.size());
  double target = 0.0;
  for (std::size_t t = 0; t < load.size(); ++t) {
    if (t % per_day == 0) {
      const std::size_t day_len = std::min(per_day, load.size() - t);
      target = stats::mean(load.values().subspan(t, day_len));
    }
    hoisted[t] = target;
  }
  const auto b2 = Clock::now();
  for (std::size_t t = 0; t < load.size(); ++t) {
    if (naive[t] != hoisted[t]) {
      std::cerr << "MISMATCH: daily targets diverge at sample " << t << '\n';
      return EXIT_FAILURE;
    }
  }

  const double naive_s = seconds(b0, b1);
  const double hoist_s = seconds(b1, b2);
  Table battery({"path", "time (s)"});
  battery.add_row().cell("per-sample daily-mean recompute").cell(naive_s);
  battery.add_row().cell("hoisted (once per day)").cell(hoist_s);
  battery.print(std::cout,
                "Battery/NILL daily targets, " + std::to_string(days) +
                    " days at 1-min resolution (outputs identical)");
  std::cout << "\nspeedup: " << format_double(naive_s / hoist_s, 1) << "x\n";

  bench::BenchJson json("streaming_features");
  json.config("packets", packets.size())
      .config("windows", num_windows)
      .config("window_s", window_s)
      .config("battery_days", days);
  json.result("rescan", rescan_s * 1e3,
              static_cast<double>(num_windows) / rescan_s, "windows/s")
      .result("streaming_single_pass", stream_s * 1e3,
              static_cast<double>(num_windows) / stream_s, "windows/s")
      .result("battery_per_sample_recompute", naive_s * 1e3,
              static_cast<double>(load.size()) / naive_s, "samples/s")
      .result("battery_hoisted", hoist_s * 1e3,
              static_cast<double>(load.size()) / hoist_s, "samples/s");
  json.metric("streaming_speedup_vs_rescan", speedup)
      .metric("battery_speedup", naive_s / hoist_s);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return EXIT_SUCCESS;
}
