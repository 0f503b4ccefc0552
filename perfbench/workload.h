// The interface each benchmark workload implements, and the per-layer
// metric names every traced run prints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "spans.h"
#include "tally.h"

namespace perfbench {

/// Per-layer metrics one traced pass produced, by metric name.
using LayerMetrics = std::map<std::string, double, std::less<>>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// What `throughput_per_s` counts: "packets" or "cells".
  virtual const char* item_name() const = 0;

  /// Everything before the first timed pass: inputs, trained models, and
  /// one small warm-up so pool threads and allocators are live. Timed as
  /// `setup_s`.
  virtual void setup() = 0;

  /// How many independent calls the input splits into; a round makes each
  /// once. 1 when the whole input is one call.
  virtual std::size_t parts() const { return 1; }

  /// One timed call through the program's public entry point, on the next
  /// part of the input in turn. Counts its ops into `tally` and returns the
  /// items it completed (0 when it failed).
  virtual double run_pass(OpTally& tally) = 0;

  /// Re-runs the workload under a width-1 pool and compares it with the
  /// first timed round's output, plus workload-specific sanity checks.
  /// Empty when correct, else the first difference. Not timed.
  virtual std::string check() = 0;

  /// Traced recomposition of one round: the same work, driven through each
  /// layer's public calls inside spans on `recorder`, called with the pass's
  /// root span open on the calling thread. Fills
  /// the workload's own named metrics into `metrics`. Counts ops into
  /// `tally`. Returns empty when the recomposition reproduced the program's
  /// output, else a description of the difference.
  virtual std::string traced_pass(SpanRecorder& recorder,
                                  LayerMetrics& metrics, OpTally& tally) = 0;
};

std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed,
                                                 const std::string& workdir);
std::unique_ptr<Workload> make_arena_workload(std::uint64_t seed);

/// Runs the arena's timed grid on each grid seed in [first, last] and prints
/// whether it completes and how long it took (how `arena_seeds.h` was made).
void scan_arena_grids(std::uint64_t first, std::uint64_t last);

/// Seconds of wall clock since an arbitrary epoch (steady clock).
double wall_now();

}  // namespace perfbench
