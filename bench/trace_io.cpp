// Trace ingest bench: CSV vs binary columnar.
//
// Builds a multi-year synthetic meter trace, persists it in both formats,
// and times the full ingest paths (src/timeseries/trace_io). The binary
// container exists to make ingest I/O-bound instead of parse-bound, so the
// headline metric is the binary-read speedup over `read_csv`.
//
// `--self-check` prints only deterministic lines: the binary round-trip is
// bit-exact, CSV -> binary -> CSV is byte-identical, and the strided-sum
// checksum of the reloaded samples (pinned 8-lane reduction tree, see DESIGN.md) is
// printed as raw bits — CI diffs this output across PMIOT_SIMD ON/OFF
// builds and PMIOT_THREADS settings, so any backend that deviates from the
// scalar reduction order fails the diff.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "timeseries/timeseries.h"
#include "timeseries/trace_io.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;

/// Synthetic whole-home trace: daily load shape plus appliance-like spikes,
/// deterministic in the seed.
ts::TimeSeries make_trace(std::size_t samples) {
  Rng rng(7);
  ts::TraceMeta meta;  // 2017-06-01, 1-minute interval
  std::vector<double> values(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double minute = static_cast<double>(i % 1440);
    const double base = 0.25 + 0.2 * (minute > 360 && minute < 1380);
    const double spike = rng.bernoulli(0.02) ? rng.uniform(0.5, 3.0) : 0.0;
    values[i] = base + spike + rng.uniform(0.0, 0.05);
  }
  return ts::TimeSeries(meta, values);
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<std::uint64_t>(is.tellg()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check_only = false;
  std::size_t samples = 1'500'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check_only = true;
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: trace_io [--self-check] [--samples N]\n";
      return EXIT_FAILURE;
    }
  }

  std::cout << "==============================================================\n"
               "Trace ingest: CSV vs binary columnar ("
            << samples << " samples)\n"
               "==============================================================\n\n";

  const ts::TimeSeries series = make_trace(samples);
  const std::string csv_path = "trace_io_bench.csv";
  const std::string bin_path = "trace_io_bench.pmiotbt";

  const auto cw0 = Clock::now();
  ts::save_csv(csv_path, series);
  const auto cw1 = Clock::now();
  const auto bw0 = Clock::now();
  ts::save_binary(bin_path, series);
  const auto bw1 = Clock::now();

  // --- Self-checks before any timing claim -------------------------------
  // 1. Binary round-trip is bit-exact.
  const ts::TimeSeries from_binary = ts::load_binary(bin_path);
  bool bit_exact = from_binary.meta() == series.meta() &&
                   from_binary.size() == series.size();
  for (std::size_t i = 0; bit_exact && i < series.size(); ++i) {
    bit_exact = std::bit_cast<std::uint64_t>(from_binary[i]) ==
                std::bit_cast<std::uint64_t>(series[i]);
  }
  if (!bit_exact) {
    std::cerr << "MISMATCH: binary round-trip is not bit-exact\n";
    return EXIT_FAILURE;
  }
  std::cout << "self-check OK: binary round-trip bit-exact (" << samples
            << " samples)\n";

  // 2. CSV -> binary -> CSV is byte-identical (the CSV parse quantizes at
  //    its printed precision; the binary hop must not add anything).
  {
    const ts::TimeSeries from_csv = ts::load_csv(csv_path);
    std::ostringstream bin_hop;
    ts::write_binary(bin_hop, from_csv);
    std::istringstream bin_in(bin_hop.str());
    const ts::TimeSeries back = ts::read_binary(bin_in);
    std::ostringstream csv_a, csv_b;
    ts::write_csv(csv_a, from_csv);
    ts::write_csv(csv_b, back);
    if (csv_a.str() != csv_b.str()) {
      std::cerr << "MISMATCH: csv -> binary -> csv is not byte-identical\n";
      return EXIT_FAILURE;
    }
    std::cout << "self-check OK: csv -> binary -> csv byte-identical\n";
  }

  // 3. The strided-sum checksum over the reloaded samples equals the scalar
  //    reference bit-for-bit. Printing the raw bits pins the
  //    deterministic-reduction contract across PMIOT_SIMD ON/OFF builds in
  //    the CI diff.
  const double sum =
      simd::strided_sum(from_binary.values().data(), from_binary.size());
  const double ref_sum =
      simd::scalar::strided_sum(series.values().data(), series.size());
  if (std::bit_cast<std::uint64_t>(sum) !=
      std::bit_cast<std::uint64_t>(ref_sum)) {
    std::cerr << "MISMATCH: strided-sum checksum diverges from the scalar "
                 "reduction tree\n";
    return EXIT_FAILURE;
  }
  std::ostringstream checksum;
  checksum << std::hex << std::setfill('0') << std::setw(16)
           << std::bit_cast<std::uint64_t>(sum);
  std::cout << "self-check OK: strided-sum checksum 0x" << checksum.str()
            << '\n';

  if (self_check_only) {
    std::remove(csv_path.c_str());
    std::remove(bin_path.c_str());
    obs::emit_if_enabled("trace_io");
    return EXIT_SUCCESS;  // deterministic output only
  }

  // --- Timed ingest paths ------------------------------------------------
  const auto cr0 = Clock::now();
  const ts::TimeSeries csv_loaded = ts::load_csv(csv_path);
  const auto cr1 = Clock::now();
  const auto br0 = Clock::now();
  const ts::TimeSeries bin_loaded = ts::load_binary(bin_path);
  const auto br1 = Clock::now();

  const double csv_write_ms = ms_between(cw0, cw1);
  const double bin_write_ms = ms_between(bw0, bw1);
  const double csv_read_ms = ms_between(cr0, cr1);
  const double bin_read_ms = ms_between(br0, br1);
  const auto n = static_cast<double>(samples);
  const double ingest_speedup = csv_read_ms / bin_read_ms;

  Table table({"path", "time (ms)", "samples/s", "vs read_csv"});
  table.add_row().cell("write_csv").cell(csv_write_ms).cell(
      n / (csv_write_ms / 1e3), 0).cell("-");
  table.add_row().cell("write_binary").cell(bin_write_ms).cell(
      n / (bin_write_ms / 1e3), 0).cell("-");
  table.add_row().cell("read_csv").cell(csv_read_ms).cell(
      n / (csv_read_ms / 1e3), 0).cell(1.0, 1);
  table.add_row().cell("read_binary (load_binary)").cell(bin_read_ms).cell(
      n / (bin_read_ms / 1e3), 0).cell(ingest_speedup, 1);
  table.print(std::cout, "Trace ingest (outputs verified bit-exact)");

  std::cout << "\nfile sizes: csv " << file_bytes(csv_path) << " bytes, binary "
            << file_bytes(bin_path) << " bytes\n"
            << "binary ingest vs read_csv: " << format_double(ingest_speedup, 1)
            << "x\n";

  bench::BenchJson json("trace_io");
  json.config("samples", samples)
      .config("interval_seconds", series.meta().interval_seconds)
      .config("simd_backend", simd::backend());
  json.result("csv_write", csv_write_ms, n / (csv_write_ms / 1e3), "samples/s")
      .result("binary_write", bin_write_ms, n / (bin_write_ms / 1e3),
              "samples/s")
      .result("csv_read", csv_read_ms, n / (csv_read_ms / 1e3), "samples/s")
      .result("binary_read", bin_read_ms, n / (bin_read_ms / 1e3), "samples/s");
  json.metric("ingest_speedup_vs_csv", ingest_speedup)
      .metric("csv_bytes", static_cast<double>(file_bytes(csv_path)))
      .metric("binary_bytes", static_cast<double>(file_bytes(bin_path)))
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';

  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
  // The quantized CSV reload and the bit-exact binary reload are both used
  // above; keep the optimizer honest about the timed loads.
  obs::emit_if_enabled("trace_io");
  return csv_loaded.size() == bin_loaded.size() ? EXIT_SUCCESS : EXIT_FAILURE;
}
