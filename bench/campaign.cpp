// Population-scale campaign bench: the §III-E knob sweep run as a fleet
// measurement (src/campaign), self-checked before any timing claim.
//
// Self-check (deterministic output only — CI diffs it across
// PMIOT_THREADS ∈ {1, 4, 16}):
//   * sharded planner == serial oracle (reference::run_campaign_serial),
//     bitwise;
//   * pool widths 1 / 4 / default agree in-process (ScopedPoolOverride);
//   * an interrupted, checkpoint-truncated, resumed run finishes bitwise
//     identical to an uninterrupted one (frontier CSV byte-compared);
//   * the checkpoint bookkeeping path (cell decode + record append)
//     allocates nothing once warm.
//
// Timed mode then runs the reference grid through the planner and through
// the serial oracle (outputs verified equal) and records both in
// BENCH_campaign.json. The ratio is reported, never gated on.
//
// `--run` is the CI kill/resume harness: stream to --checkpoint, die (or
// get killed) mid-flight, rerun with --resume, and diff the --frontier
// artifact against an uninterrupted run.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "alloc_probe.h"
#include "bench_json.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "reference/campaign_oracle.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;
using bench::fail;

/// Small grid the equalities are proven on (seconds, not minutes). Three
/// homes per archetype with two-home blocks forces
/// multi-block merges.
campaign::CampaignConfig self_check_config() {
  campaign::CampaignConfig config;
  config.intensities = {0.0, 0.5, 1.0};
  config.homes_per_archetype = 3;
  config.days = 2;
  config.block_homes = 2;
  return config;
}

/// Reference grid for the timed run.
campaign::CampaignConfig reference_config(std::size_t homes) {
  campaign::CampaignConfig config;
  config.homes_per_archetype = homes;
  return config;
}

std::string frontier_text(const campaign::CampaignResult& result) {
  std::ostringstream os;
  campaign::write_frontier_csv(os, result.config,
                               campaign::build_frontier(result));
  return os.str();
}

/// The deterministic self-check battery; prints one "self-check OK" line
/// per property.
int self_check() {
  const campaign::CampaignConfig config = self_check_config();
  const campaign::CampaignPlan plan(config);

  const auto base = campaign::run_campaign(config);
  if (base.cells_evaluated != plan.total_cells()) {
    return fail("sharded run left cells unevaluated");
  }

  // Sharded planner vs the serial per-cell oracle.
  const auto oracle = reference::run_campaign_serial(config);
  if (const auto d = campaign::describe_divergence(base, oracle); !d.empty()) {
    return fail("sharded run diverges from serial oracle: " + d);
  }
  std::cout << "self-check OK: sharded planner == serial oracle ("
            << plan.total_cells() << " cells)\n";

  // Pool-width invariance inside one process.
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride override_pool(pool);
    const auto run = campaign::run_campaign(config);
    if (const auto d = campaign::describe_divergence(base, run); !d.empty()) {
      return fail("pool width " + std::to_string(width) +
                  " diverges from default: " + d);
    }
  }
  std::cout << "self-check OK: pool widths 1/4/default agree\n";

  // Interrupt, corrupt the tail the way a kill would, resume.
  const std::string checkpoint_path = "campaign_selfcheck.pmiotcp";
  std::filesystem::remove(checkpoint_path);
  campaign::RunOptions interrupt_options;
  interrupt_options.checkpoint_path = checkpoint_path;
  interrupt_options.max_new_cells = plan.total_cells() / 3;
  const auto partial = campaign::run_campaign(config, interrupt_options);
  if (partial.cells_evaluated != plan.total_cells() / 3) {
    return fail("interrupted run ignored its cell budget");
  }
  {
    // A kill can land mid-fwrite: leave half a record at the tail.
    std::ofstream os(checkpoint_path,
                     std::ios::binary | std::ios::app);
    const char garbage[7] = {1, 2, 3, 4, 5, 6, 7};
    os.write(garbage, sizeof garbage);
  }
  campaign::RunOptions resume_options;
  resume_options.checkpoint_path = checkpoint_path;
  resume_options.resume = true;
  const auto resumed = campaign::run_campaign(config, resume_options);
  if (resumed.cells_resumed != plan.total_cells() / 3) {
    return fail("resume did not recover the interrupted cells");
  }
  if (const auto d = campaign::describe_divergence(base, resumed);
      !d.empty()) {
    return fail("resumed run diverges from uninterrupted run: " + d);
  }
  if (frontier_text(base) != frontier_text(resumed)) {
    return fail("resumed frontier CSV differs from uninterrupted run");
  }
  std::filesystem::remove(checkpoint_path);
  std::cout << "self-check OK: interrupted+truncated+resumed == "
               "uninterrupted (frontier CSV byte-identical, "
            << resumed.cells_resumed << " cells resumed)\n";

  // Zero-allocation bookkeeping: once the writer and plan are warm, the
  // per-cell decode + record-append path must not touch the heap. (The
  // evaluator's own math allocates and is timed, not policed; the campaign
  // layer's contract is that *its* steady-state bookkeeping is free.)
  {
    const std::string probe_path = "campaign_selfcheck_probe.pmiotcp";
    const std::uint64_t hash = campaign::config_hash(config);
    std::vector<double> payload(plan.payload_doubles(), 0.25);
    std::uint64_t mixed = 0;
    {
      campaign::CheckpointWriter writer(probe_path, plan, hash,
                                        config.base_seed);
      const std::uint64_t probe_cells =
          std::min<std::uint64_t>(plan.total_cells(), 64);
      for (std::uint64_t cell = 0; cell < probe_cells; ++cell) {
        const auto ref = plan.decode(cell);
        mixed += ref.home + ref.defense;
        writer.append(cell, payload);
      }
      writer.flush();
      const std::uint64_t before = g_heap_allocations.load();
      for (std::uint64_t cell = 0; cell < probe_cells; ++cell) {
        const auto ref = plan.decode(cell);
        mixed += ref.home + ref.defense;
        writer.append(cell, payload);
      }
      writer.flush();
      const std::uint64_t steady = g_heap_allocations.load() - before;
      if (steady != 0) {
        return fail("steady-state checkpoint bookkeeping allocated " +
                    std::to_string(steady) + " time(s)");
      }
    }
    std::filesystem::remove(probe_path);
    if (mixed == 0) return fail("probe optimized away");  // keep `mixed` live
    std::cout << "self-check OK: warm checkpoint bookkeeping allocated 0 "
                 "times\n";
  }

  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check_only = false;
  bool run_mode = false;
  bool resume = false;
  std::size_t homes = 8;
  std::string checkpoint_path;
  std::string frontier_path = "campaign_frontier.csv";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check_only = true;
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run_mode = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--frontier") == 0 && i + 1 < argc) {
      frontier_path = argv[++i];
    } else {
      std::cerr << "usage: campaign [--self-check] [--run] [--resume] "
                   "[--homes N] [--checkpoint PATH] [--frontier PATH]\n";
      return EXIT_FAILURE;
    }
  }

  if (run_mode) {
    // CI kill/resume harness: no self-check chatter, no timing — just run
    // (possibly resuming) and emit the frontier artifact to diff.
    const campaign::CampaignConfig config = reference_config(homes);
    campaign::RunOptions options;
    options.checkpoint_path = checkpoint_path;
    options.resume = resume;
    const auto result = campaign::run_campaign(config, options);
    std::ofstream os(frontier_path);
    if (!os) {
      std::cerr << "cannot write frontier artifact: " << frontier_path
                << '\n';
      return EXIT_FAILURE;
    }
    os << frontier_text(result);
    std::cout << "campaign complete: "
              << result.cells_evaluated + result.cells_resumed
              << " cells, frontier written\n";
    return EXIT_SUCCESS;
  }

  std::cout
      << "==============================================================\n"
         "Population-scale privacy campaign (src/campaign)\n"
         "==============================================================\n\n";

  if (const int rc = self_check(); rc != EXIT_SUCCESS) return rc;

  // Snapshot goes to stderr + METRICS_*.json only, so stdout stays bitwise
  // identical with metrics on and off (CI diffs it at several PMIOT_THREADS
  // settings).
  obs::emit_if_enabled("campaign");
  if (self_check_only) return EXIT_SUCCESS;  // deterministic output only

  // Timed reference grid: the planner (per-home trace/model/baseline reuse
  // on the pool) vs the serial nested-loop oracle.
  const campaign::CampaignConfig config = reference_config(homes);
  const campaign::CampaignPlan plan(config);

  const auto c0 = Clock::now();
  const auto planned = campaign::run_campaign(config);
  const auto c1 = Clock::now();
  const auto s0 = Clock::now();
  const auto serial = reference::run_campaign_serial(config);
  const auto s1 = Clock::now();
  if (const auto d = campaign::describe_divergence(planned, serial);
      !d.empty()) {
    return fail("reference grid planner vs serial oracle: ", d);
  }

  const double planned_ms = ms_between(c0, c1);
  const double serial_ms = ms_between(s0, s1);
  const double speedup = serial_ms / planned_ms;
  const double cells = static_cast<double>(plan.total_cells());

  Table table({"pass", "time (s)", "cells/s"});
  table.add_row()
      .cell("planner (trace+model reuse, pooled)")
      .cell(planned_ms / 1e3)
      .cell(cells / (planned_ms / 1e3), 0);
  table.add_row()
      .cell("serial oracle")
      .cell(serial_ms / 1e3)
      .cell(cells / (serial_ms / 1e3), 0);
  table.print(std::cout, "Campaign reference grid (outputs verified equal)");
  std::cout << "\nplanner vs serial oracle at " << par::thread_count()
            << " thread(s): " << format_double(speedup, 1) << "x\n";

  {
    std::ofstream os(frontier_path);
    if (os) {
      os << frontier_text(planned);
      std::cout << "wrote " << frontier_path << '\n';
    }
  }

  bench::BenchJson json("campaign");
  json.config("archetypes", static_cast<std::size_t>(config.archetypes.size()))
      .config("homes_per_archetype", config.homes_per_archetype)
      .config("defenses", static_cast<std::size_t>(config.defenses.size()))
      .config("attacks", static_cast<std::size_t>(config.attacks.size()))
      .config("intensities",
              static_cast<std::size_t>(config.intensities.size()))
      .config("days", config.days)
      .config("base_seed", static_cast<std::size_t>(config.base_seed))
      .config("threads", static_cast<std::size_t>(par::thread_count()));
  json.result("planner", planned_ms, cells / (planned_ms / 1e3), "cells/s")
      .result("serial_oracle", serial_ms, cells / (serial_ms / 1e3),
              "cells/s");
  json.metric("speedup_vs_serial_oracle", speedup)
      .metric("total_cells", cells)
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return EXIT_SUCCESS;
}
