// pmiot_perfbench: runs one benchmark workload and prints its metrics.
//
//   pmiot_perfbench --workload fleet|campaign|arena --seed N --seconds S
//                   --trace 0|1 --workdir DIR
//   pmiot_perfbench --scan-arena FIRST LAST
//
// --trace 0: set up several times, then repeat timed passes through the
// program's public entry point for S seconds, check the output against a
// width-1 run, and print the end-to-end metrics.
// --trace 1: alternate untraced passes with traced recompositions for S
// seconds and print the per-layer metrics (run with PMIOT_METRICS=1 so the
// program's own counters are live).
// --scan-arena: runs the arena's timed grid on each grid seed in
// [FIRST, LAST] and prints whether it completes.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "spans.h"
#include "tally.h"
#include "workload.h"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinRounds = 3;
// A sample whose wall lost more than this share of the machine's CPU time to
// the hypervisor measured the host, not the program.
constexpr double kMaxStealShare = 0.02;

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// CPU seconds the hypervisor took from this machine, summed over CPUs (the
/// `steal` column of /proc/stat); 0 where the kernel does not report it.
double steal_now() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

/// Resets the kernel's resident-set high-water mark (VmHWM) so the next
/// `peak_rss_mib` reads the peak of what ran since. False where
/// /proc/self/clear_refs is not writable; the peak then covers the process.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Metric tables ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Stage span whose summed duration the metric reports; null when the
  /// workload, the summary or the obs snapshot fills it.
  const char* span = nullptr;
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},      {"run_s", "s"},          {"throughput_per_s", "1/s"},
      {"cpu_s", "s"},        {"peak_rss_mib", "MiB"}, {"ok_fraction", "fraction"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // fleet
      {"fleet.make_home.busy_s", "s", "fleet.make_home"},
      {"net.extract_rows.busy_s", "s", "net.extract_rows"},
      {"net.extract_rows.windows", "count"},
      {"net.policy_counts.busy_s", "s", "net.policy_counts"},
      {"net.replay.busy_s", "s", "net.replay"},
      {"fleet.batch_phase.wall_s", "s"},
      {"ml.predict_all.busy_s", "s", "ml.predict_all"},
      {"ml.predict_all.rows", "count"},
      {"common.par.shard.busy_share", "fraction"},
      {"common.par.replay.busy_share", "fraction"},
      // arena
      {"net.simulate_home_network.busy_s", "s", "net.simulate_home_network"},
      {"net.wan_view.busy_s", "s", "net.wan_view"},
      {"net.windowed_features.busy_s", "s", "net.windowed_features"},
      {"net.windowed_features.windows", "count"},
      {"net.recovery_features.busy_s", "s", "net.recovery_features"},
      {"net.shape.constant-rate.busy_s", "s", "net.shape.constant-rate"},
      {"net.shape.cover.busy_s", "s", "net.shape.cover"},
      {"net.shape.decoy.busy_s", "s", "net.shape.decoy"},
      {"net.shape.vpn.busy_s", "s", "net.shape.vpn"},
      {"net.shape.packets_out_per_in", "ratio"},
      {"arena.cell.p50_s", "s"},
      {"arena.cell.max_s", "s"},
      {"common.par.cells.busy_share", "fraction"},
      {"ml.forest.fit_s", "s"},
      {"ml.knn.fit_s", "s", "ml.knn.fit"},
      // campaign
      {"synth.simulate_home.busy_s", "s", "synth.simulate_home"},
      {"attack.occupancy.fit_s", "s", "attack.occupancy.fit"},
      {"attack.occupancy.score_s", "s", "attack.occupancy.score"},
      {"attack.appliances.fit_s", "s", "attack.appliances.fit"},
      {"attack.appliances.score_s", "s", "attack.appliances.score"},
      {"attack.forest.fit_s", "s", "attack.forest.fit"},
      {"attack.forest.score_s", "s", "attack.forest.score"},
      {"campaign.cells_per_fit", "ratio"},
      {"campaign.forest_fits", "count"},
      {"defense.apply.busy_s", "s", "defense.apply"},
      {"core.baseline.busy_s", "s", "core.baseline"},
      {"core.score_into.busy_s", "s", "core.score_into"},
      {"campaign.checkpoint.append_s", "s", "campaign.checkpoint.append"},
      {"campaign.checkpoint.bytes", "bytes"},
      {"common.par.homes.busy_share", "fraction"},
      // the program's own obs counters over an untraced pass
      {"ml.tree.boundary_scans", "count"},
      {"ml.tree.nodes_split", "count"},
      {"ml.knn.tile_kernels", "count"},
      {"campaign.models_fitted", "count"},
      {"net.gateway.windows_scored", "count"},
      {"par.batches", "count"},
      // per layer, from the span summary
      {"layer.synth.self_s", "s"},
      {"layer.fleet.self_s", "s"},
      {"layer.net.self_s", "s"},
      {"layer.ml.self_s", "s"},
      {"layer.core.self_s", "s"},
      {"layer.defense.self_s", "s"},
      {"layer.campaign.self_s", "s"},
      {"layer.common.par.self_s", "s"},
      {"layer.synth.wall_share", "fraction"},
      {"layer.fleet.wall_share", "fraction"},
      {"layer.net.wall_share", "fraction"},
      {"layer.ml.wall_share", "fraction"},
      {"layer.core.wall_share", "fraction"},
      {"layer.defense.wall_share", "fraction"},
      {"layer.campaign.wall_share", "fraction"},
      {"layer.common.par.wall_share", "fraction"},
      // the trace itself
      {"trace.coverage", "fraction"},
      {"trace.wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
      {"trace.recompose_match", "bool"},
  };
  return specs;
}

// Metrics read from the program's own obs snapshot: (metric, snapshot key).
const std::pair<const char*, const char*> kObsMetrics[] = {
    {"ml.tree.boundary_scans", "ml.tree.boundary_scans"},
    {"ml.tree.nodes_split", "ml.tree.nodes_split"},
    {"ml.knn.tile_kernels", "ml.knn.tile_kernels"},
    {"campaign.models_fitted", "campaign.models_fitted"},
    {"net.gateway.windows_scored", "net.gateway.windows_scored"},
    {"par.batches", "par.batches"},
    {"ml.forest.fit_s", "timer:ml.forest.fit"},
};

std::map<std::string, double> obs_values() {
  std::map<std::string, double> out;
  const auto snap = pmiot::obs::MetricsRegistry::instance().snapshot(
      {/*include_nondeterministic=*/true});
  for (const auto& c : snap.counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  for (const auto& t : snap.timers) {
    out["timer:" + t.name] = static_cast<double>(t.total_ns) * 1e-9;
  }
  return out;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_result(bool correct, const OpTally& tally,
                  const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << (first ? "" : ", ") << '"' << spec.name
              << "\": {\"value\": " << json_number(v) << ", \"unit\": \""
              << spec.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

void print_table(const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values) {
  for (const auto& spec : specs) {
    const auto it = values.find(spec.name);
    std::printf("  %-36s %16.6g %s\n", spec.name,
                it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "fleet") return make_fleet_workload(seed);
  if (name == "campaign") return make_campaign_workload(seed, workdir);
  if (name == "arena") return make_arena_workload(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".";
};

int run_untraced(const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w = make_workload(args.workload, args.seed, args.workdir);
    const double t0 = wall_now();
    w->setup();
    setups.push_back(wall_now() - t0);
  }

  // A round runs every part of the input once. Each part keeps its own
  // samples, and a round is estimated part by part from their medians, so
  // a slow stretch of the host inflates one sample, not the estimate.
  // Samples during which the hypervisor stole CPU time are left out of the
  // medians while at least half of a part's samples are clean.
  struct Sample {
    double wall = 0.0;
    double cpu = 0.0;
    double items = 0.0;
    double peak = 0.0;
    double steal = 0.0;
  };
  const auto cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const std::size_t parts = w->parts();
  std::vector<std::vector<Sample>> by_part(parts);
  std::vector<double> walls;
  OpTally tally;
  const double start = wall_now();
  while (walls.size() % parts != 0 || walls.size() < kMinRounds * parts ||
         wall_now() - start < args.seconds) {
    const bool per_pass_peak = reset_peak_rss();
    Sample sample;
    const double s0 = steal_now();
    const double c0 = cpu_now();
    const double t0 = wall_now();
    sample.items = w->run_pass(tally);
    sample.wall = wall_now() - t0;
    sample.cpu = cpu_now() - c0;
    sample.steal = steal_now() - s0;
    sample.peak = per_pass_peak ? peak_rss_mib() : 0.0;
    by_part[walls.size() % parts].push_back(sample);
    walls.push_back(sample.wall);
  }
  const std::string problem = w->check();
  const bool correct = problem.empty();
  if (!correct) tally.fail_all(problem);

  std::size_t used = 0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double items = 0.0;
  double peak = 0.0;
  for (const auto& samples : by_part) {
    std::vector<Sample> clean;
    for (const auto& sample : samples) {
      if (sample.steal <= kMaxStealShare * sample.wall * cpus) {
        clean.push_back(sample);
      }
    }
    const auto& kept = 2 * clean.size() >= samples.size() ? clean : samples;
    used += kept.size();
    const auto part_median = [&](double Sample::*field) {
      std::vector<double> v;
      for (const auto& sample : kept) v.push_back(sample.*field);
      return median(v);
    };
    run_s += part_median(&Sample::wall);
    cpu_s += part_median(&Sample::cpu);
    items += part_median(&Sample::items);
    peak += part_median(&Sample::peak) / static_cast<double>(parts);
  }
  double steal = 0.0;
  for (const auto& samples : by_part) {
    for (const auto& sample : samples) steal += sample.steal;
  }

  std::map<std::string, double> values;
  values["setup_s"] = median(setups);
  values["run_s"] = run_s;
  values["throughput_per_s"] = items / run_s;
  values["cpu_s"] = cpu_s;
  values["peak_rss_mib"] = peak > 0.0 ? peak : peak_rss_mib();
  values["ok_fraction"] = 1.0 - tally.failed_fraction();

  std::printf("workload %s seed %llu: %zu rounds of %zu part(s), %s per "
              "second\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              walls.size() / parts, parts, w->item_name());
  print_table(end_to_end_metrics(), values);
  std::printf("  part walls (s):");
  for (const double wall : walls) std::printf(" %.3f", wall);
  double timed = 0.0;
  for (const double wall : walls) timed += wall;
  std::printf("\n  hypervisor steal: %.2f%% of CPU time; %zu of %zu samples "
              "used",
              100.0 * steal / (timed * cpus), used, walls.size());
  std::printf("\n  %-36s %16.6g (%llu of %llu ops)\n", "failed_fraction",
              tally.failed_fraction(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  if (!tally.first_error.empty()) {
    std::printf("  first failure: %s\n", tally.first_error.c_str());
  }
  std::printf("  correct: %s\n", correct ? "yes" : problem.c_str());
  print_result(correct, tally, end_to_end_metrics(), values);
  return 0;
}

int run_traced(const Args& args) {
  auto w = make_workload(args.workload, args.seed, args.workdir);
  w->setup();

  OpTally tally;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> coverage;
  std::map<std::string, double> sums;
  std::string mismatch;
  std::size_t span_count = 0;
  std::vector<Span> last_spans;
  std::map<std::string, std::uint64_t, std::less<>> last_calls;
  std::map<std::string, double, std::less<>> last_busy;
  const double start = wall_now();
  while (traced.empty() || wall_now() - start < args.seconds) {
    // The program's own counters come from the untraced round: the real
    // entry point, not the recomposition.
    const auto before = obs_values();
    const double t0 = wall_now();
    for (std::size_t p = 0; p < w->parts(); ++p) w->run_pass(tally);
    untraced.push_back(wall_now() - t0);
    const auto after = obs_values();

    SpanRecorder rec;
    LayerMetrics metrics;
    std::uint32_t root = 0;
    {
      ScopedSpan pass(rec, "pass", Layer::kGroup);
      root = pass.id();
      if (auto diff = w->traced_pass(rec, metrics, tally);
          !diff.empty() && mismatch.empty()) {
        mismatch = diff;
      }
    }
    auto summary = summarize(rec.spans(), root);
    last_spans = rec.spans();
    traced.push_back(summary.wall_s);
    coverage.push_back(summary.coverage);
    span_count += rec.spans().size();

    for (const auto& spec : per_layer_metrics()) {
      if (spec.span == nullptr) continue;
      const auto it = summary.busy_s.find(spec.span);
      if (it != summary.busy_s.end()) sums[spec.name] += it->second;
    }
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const std::string layer = layer_name(static_cast<Layer>(l));
      sums["layer." + layer + ".self_s"] += summary.self_s[l];
      sums["layer." + layer + ".wall_share"] +=
          summary.wall_s > 0.0 ? summary.wall_s_by_layer[l] / summary.wall_s
                               : 0.0;
    }
    for (const auto& [name, value] : metrics) sums[name] += value;
    last_calls = std::move(summary.calls);
    last_busy = std::move(summary.busy_s);
    for (const auto& [name, key] : kObsMetrics) {
      const auto a = after.find(key);
      const auto b = before.find(key);
      if (a != after.end()) {
        sums[name] += a->second - (b == before.end() ? 0.0 : b->second);
      }
    }
  }

  // Per-pass means of the sums; medians for the pass-level figures.
  const auto passes = static_cast<double>(traced.size());
  std::map<std::string, double> values;
  for (const auto& [name, sum] : sums) values[name] = sum / passes;
  values["trace.coverage"] = median(coverage);
  values["trace.wall_s"] = median(traced);
  values["trace.untraced_wall_s"] = median(untraced);
  values["trace.overhead_s"] = median(traced) - median(untraced);
  values["trace.spans"] = static_cast<double>(span_count) / passes;
  values["trace.recompose_match"] = mismatch.empty() ? 1.0 : 0.0;

  std::string problem = w->check();
  // The fleet recomposition must equal process_fleet bitwise.
  if (problem.empty() && args.workload == "fleet" && !mismatch.empty()) {
    problem = mismatch;
  }
  const bool correct = problem.empty();
  if (!correct) tally.fail_all(problem);

  std::printf("workload %s seed %llu: traced %zu rounds (untraced %zu)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), traced.size(),
              untraced.size());
  print_table(per_layer_metrics(), values);
  std::printf("  stages of the last traced round (calls, busy s):\n");
  for (const auto& [name, calls] : last_calls) {
    std::printf("    %-34s %10llu %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(calls), last_busy[name]);
  }
  // The last traced round's spans, written out now that the run is over.
  const std::string trace_path = args.workdir + "/spans.json";
  std::ofstream trace_file(trace_path);
  write_trace_events(trace_file, last_spans);
  trace_file.close();
  std::printf("  spans of the last traced round: %s\n",
              trace_file ? trace_path.c_str() : "(write failed)");
  if (!mismatch.empty()) std::printf("  recomposition: %s\n", mismatch.c_str());
  std::printf("  correct: %s\n", correct ? "yes" : problem.c_str());
  print_result(correct, tally, per_layer_metrics(), values);
  return 0;
}

int usage() {
  std::cerr << "usage: pmiot_perfbench --workload fleet|campaign|arena "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       pmiot_perfbench --scan-arena FIRST LAST\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scan-arena" && i + 2 < argc) {
      scan_arena_grids(std::strtoull(argv[i + 1], nullptr, 10),
                       std::strtoull(argv[i + 2], nullptr, 10));
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return usage();
    }
  }
  if (args.workload != "fleet" && args.workload != "campaign" &&
      args.workload != "arena") {
    return usage();
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("host: nproc=%ld threads=%zu simd=%s build=%s\n", nproc,
              pmiot::par::thread_count(), pmiot::simd::backend(),
              PERFBENCH_BUILD_TYPE);
  try {
    return args.trace != 0 ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << '\n';
    return 1;
  }
}
