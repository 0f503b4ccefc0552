// Determinism suite for the observability layer: counter/histogram
// snapshots must be bitwise identical at any pool width, the metrics-off
// path must record nothing, and a failed batch must discard its per-shard
// cells wholesale (never merge them partially by scheduling order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace pmiot {
namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::instance(); }

/// Turns recording on for one test and restores the default (off — the
/// test binary runs without PMIOT_METRICS) afterwards, zeroing values on
/// both edges so tests never see each other's counts.
struct MetricsOn {
  MetricsOn() {
    registry().reset_values_for_testing();
    obs::set_enabled_for_testing(true);
  }
  ~MetricsOn() {
    obs::set_enabled_for_testing(false);
    registry().reset_values_for_testing();
  }
};

/// A workload touching every deterministic metric family from inside
/// shards: per-shard counter deltas, per-shard histogram observes (doubles,
/// so merge order matters), plus direct adds from serial code.
void run_workload() {
  obs::Counter& events = registry().counter("test.obs.events");
  obs::Histogram& sizes =
      registry().histogram("test.obs.sizes", {1.0, 10.0, 100.0});

  events.add(5);  // direct add outside any batch
  par::parallel_for(0, 16, [&](std::size_t i) {
    events.add(i + 1);
    sizes.observe(0.1 * static_cast<double>(i * i));
    // Nested batches run inline and accumulate into the enclosing shard's
    // cell; they are not counted as batches at any width. The nesting here
    // is deliberate: it pins exactly that behaviour.
    // pmiot-lint: allow(nested-par)
    par::parallel_for(0, 3, [&](std::size_t j) {
      events.add(j);
      sizes.observe(static_cast<double>(i) + 0.25 * static_cast<double>(j));
    });
  });
  sizes.observe(1.0);  // direct observe after the batch
}

std::string deterministic_text() {
  return obs::to_text(registry().snapshot({}));
}

TEST(Obs, CounterSnapshotsIdenticalAcrossPoolWidths) {
  MetricsOn on;

  run_workload();  // default shared pool (hardware width / PMIOT_THREADS)
  const std::string at_default = deterministic_text();
  ASSERT_NE(at_default.find("counter test.obs.events"), std::string::npos);

  registry().reset_values_for_testing();
  {
    par::ThreadPool pool1(1);
    par::ScopedPoolOverride scope(pool1);
    run_workload();
  }
  const std::string at_1 = deterministic_text();

  registry().reset_values_for_testing();
  {
    par::ThreadPool pool4(4);
    par::ScopedPoolOverride scope(pool4);
    run_workload();
  }
  const std::string at_4 = deterministic_text();

  EXPECT_EQ(at_1, at_default);
  EXPECT_EQ(at_4, at_default);
}

TEST(Obs, WorkloadCountsAreExact) {
  MetricsOn on;
  run_workload();
  // 5 direct + sum(i+1, i<16)=136 in shards + 16 nested * (0+1+2)=48.
  EXPECT_EQ(registry().counter("test.obs.events").value(), 5u + 136u + 48u);
}

TEST(Obs, ParBatchAndShardCountersTrackTopLevelBatches) {
  MetricsOn on;
  const std::uint64_t batches0 = registry().counter("par.batches").value();
  const std::uint64_t shards0 = registry().counter("par.shards").value();
  run_workload();
  // One top-level batch of 16 shards; the 16 nested calls count nowhere.
  EXPECT_EQ(registry().counter("par.batches").value(), batches0 + 1);
  EXPECT_EQ(registry().counter("par.shards").value(), shards0 + 16);
}

TEST(Obs, MetricsOffReturnsEmptySnapshot) {
  registry().reset_values_for_testing();
  obs::set_enabled_for_testing(false);
  obs::Counter& c = registry().counter("test.obs.off_counter");
  c.add(42);
  par::parallel_for(0, 8, [&](std::size_t) { c.add(); });
  EXPECT_EQ(c.value(), 0u);

  const obs::Snapshot snap =
      registry().snapshot({.include_nondeterministic = true});
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.timers.empty());
  EXPECT_TRUE(snap.worker_shards.empty());
  EXPECT_EQ(obs::to_text(snap), "");
}

TEST(Obs, HistogramBucketEdgeCases) {
  MetricsOn on;
  obs::Histogram& h =
      registry().histogram("test.obs.edges", {1.0, 2.0, 4.0});
  h.observe(1.0);   // exactly on the first edge -> bucket 0 (v <= edge)
  h.observe(1.5);   // between edges -> bucket 1
  h.observe(4.0);   // exactly on the last edge -> bucket 2
  h.observe(5.0);   // above every edge -> overflow bucket
  h.observe(-3.0);  // below every edge -> bucket 0

  const obs::Snapshot snap = registry().snapshot({});
  const auto it = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& hv) { return hv.name == "test.obs.edges"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->buckets, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(it->count, 5u);
  EXPECT_DOUBLE_EQ(it->sum, 1.0 + 1.5 + 4.0 + 5.0 - 3.0);

  // Zero edges means one catch-all bucket.
  obs::Histogram& all = registry().histogram("test.obs.one_bucket", {});
  all.observe(123.0);

  // Misuse is a checked error, not UB.
  EXPECT_THROW(registry().histogram("test.obs.bad_edges", {2.0, 1.0}),
               InvalidArgument);
  EXPECT_THROW(registry().histogram("test.obs.edges", {1.0, 2.0}),
               InvalidArgument);  // re-registered with different edges
}

// Pins the exception policy audited in ISSUE 5: the pool path keeps
// running remaining iterations after a throw while the inline (width-1)
// path stops at the throw, so the set of executed shards differs by width.
// Merging survivors could never be deterministic — a failed batch must
// discard every per-shard cell, at every width.
TEST(Obs, FailedBatchDiscardsAllShardCells) {
  MetricsOn on;
  obs::Counter& c = registry().counter("test.obs.failing");

  const auto failing = [&](std::size_t i) {
    if (i == 2) throw InvalidArgument("boom");
    c.add(100);
  };

  c.add(1);  // direct adds outside the batch are unaffected
  EXPECT_THROW(par::parallel_for(0, 8, failing), InvalidArgument);
  EXPECT_EQ(c.value(), 1u);
  const std::string after_default = deterministic_text();

  registry().reset_values_for_testing();
  {
    par::ThreadPool pool1(1);
    par::ScopedPoolOverride scope(pool1);
    c.add(1);
    EXPECT_THROW(par::parallel_for(0, 8, failing), InvalidArgument);
  }
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(deterministic_text(), after_default);

  registry().reset_values_for_testing();
  {
    par::ThreadPool pool4(4);
    par::ScopedPoolOverride scope(pool4);
    c.add(1);
    EXPECT_THROW(par::parallel_for(0, 8, failing), InvalidArgument);
  }
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(deterministic_text(), after_default);

  // The registry is healthy after a failed batch: the next successful
  // batch merges normally.
  par::parallel_for(0, 4, [&](std::size_t) { c.add(10); });
  EXPECT_EQ(c.value(), 41u);
}

TEST(Obs, TimersOnlyInNondeterministicSnapshot) {
  MetricsOn on;
  obs::Timer& t = registry().timer("test.obs.span");
  { obs::ScopedTimer span(t); }

  const obs::Snapshot deterministic = registry().snapshot({});
  EXPECT_TRUE(deterministic.timers.empty());
  EXPECT_EQ(deterministic_text().find("test.obs.span"), std::string::npos);

  const obs::Snapshot all =
      registry().snapshot({.include_nondeterministic = true});
  const auto it =
      std::find_if(all.timers.begin(), all.timers.end(),
                   [](const auto& tv) { return tv.name == "test.obs.span"; });
  ASSERT_NE(it, all.timers.end());
  EXPECT_EQ(it->count, 1u);
}

TEST(Obs, WorkerShardCountsOnlyInNondeterministicSnapshot) {
  MetricsOn on;
  par::parallel_for(0, 32, [](std::size_t) {});
  const obs::Snapshot deterministic = registry().snapshot({});
  EXPECT_TRUE(deterministic.worker_shards.empty());

  const obs::Snapshot all =
      registry().snapshot({.include_nondeterministic = true});
  std::uint64_t total = 0;
  for (const auto& w : all.worker_shards) total += w.value;
  EXPECT_EQ(total, 32u);
}

TEST(Obs, JsonSnapshotFollowsBenchConventions) {
  MetricsOn on;
  registry().counter("test.obs.json").add(3);
  registry().histogram("test.obs.json_hist", {2.5}).observe(1.0);
  const std::string json = obs::to_json(
      registry().snapshot({.include_nondeterministic = true}), "obs_test");
  EXPECT_NE(json.find("\"source\": \"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"edges\": [2.5]"), std::string::npos);
  EXPECT_NE(json.find("\"worker_shards\""), std::string::npos);
}

}  // namespace
}  // namespace pmiot
