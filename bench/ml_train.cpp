// Hot-loop regression bench for the columnar ML training kernels.
//
// The §IV fingerprinting evaluation and the supervised NIOM detector both
// bottom out in classical-ML training loops: random-forest induction and
// brute-force kNN search. The seed grew every tree by re-sorting each
// candidate feature at every node over a deep-copied bootstrap dataset —
// O(d·n·log n) per node plus an O(n) class-count rescan per node — and
// answered kNN queries one at a time with a fresh distance buffer per query.
//
// The rebuilt kernels argsort each feature once per forest, grow trees with
// linear scans over the presorted order (stable partition down the tree),
// keep a bootstrap as per-row draw counts instead of a row copy and grow
// each tree over its distinct drawn rows, train trees in parallel over
// `pmiot::par`, and run kNN as a blocked batch kernel over a
// flat training matrix with precomputed squared norms.
//
// This bench first *validates* the new kernels against seed-faithful
// references — presorted vs per-node-sort trees must predict identically,
// the parallel forest must match a serial seed replica, and the kNN batch
// kernel must match both per-row predict and a naive full-sort reference —
// and only then times forest fit and kNN batch predict at the reference
// config (20k rows x 24 features, 64 trees). A mismatch exits nonzero; the
// speedups are reported, never gated on. Pass --self-check to run the
// validation suite at small sizes and skip the timing (used under
// sanitizers in CI). The tree and forest references are
// `reference::PerNodeSortTree` / `reference::SeedForest`.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "reference/decision_tree.h"
#include "simd/simd.h"

using namespace pmiot;

namespace {

using bench::Clock;
using bench::ms_between;
using bench::fail;

/// Gaussian-cluster classification data: one centroid per class, the first
/// half of the features informative, the rest pure noise.
ml::Dataset make_classification(std::size_t n, std::size_t d, int classes,
                                Rng& rng) {
  std::vector<std::vector<double>> centroids(
      static_cast<std::size_t>(classes), std::vector<double>(d, 0.0));
  for (auto& c : centroids) {
    for (std::size_t f = 0; f < d / 2; ++f) c[f] = rng.uniform(-2.0, 2.0);
  }
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label =
        static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
    std::vector<double> row(d);
    for (std::size_t f = 0; f < d; ++f) {
      row[f] = centroids[static_cast<std::size_t>(label)][f] + rng.normal(0.0, 1.0);
    }
    data.append(std::move(row), label);
  }
  return data;
}

/// Seed-faithful kNN reference: subtract-kernel distances, full sort by
/// (dist², training-row index), majority vote with nearest-first ties.
int seed_knn_predict(const ml::Dataset& train, int k,
                     std::span<const double> row) {
  struct Neighbour {
    double dist2;
    std::size_t index;
  };
  std::vector<Neighbour> all;
  all.reserve(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) {
      const double d = row[c] - train.rows[i][c];
      d2 += d * d;
    }
    all.push_back(Neighbour{d2, i});
  }
  std::sort(all.begin(), all.end(), [](const Neighbour& a, const Neighbour& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
  });
  const auto kk = std::min<std::size_t>(static_cast<std::size_t>(k), all.size());
  std::vector<int> votes(static_cast<std::size_t>(train.num_classes()), 0);
  for (std::size_t i = 0; i < kk; ++i) {
    ++votes[static_cast<std::size_t>(train.labels[all[i].index])];
  }
  int best = train.labels[all[0].index];
  for (std::size_t c = 0; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<std::size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

/// Fits the production tree and the per-node-sort reference on `data` and
/// requires identical predictions over `data` and `probe` plus identical
/// shape.
bool check_tree_pair(const ml::Dataset& data, const ml::Dataset& probe,
                     ml::TreeOptions options, std::uint64_t seed,
                     const std::string& what) {
  ml::DecisionTree fast(options, seed);
  reference::PerNodeSortTree slow(options, seed);
  fast.fit(data);
  slow.fit(data);
  if (fast.node_count() != slow.node_count() || fast.depth() != slow.depth()) {
    std::cerr << "MISMATCH (" << what << "): tree shape differs ("
              << fast.node_count() << " vs " << slow.node_count()
              << " nodes, depth " << fast.depth() << " vs " << slow.depth()
              << ")\n";
    return false;
  }
  for (const auto* set : {&data, &probe}) {
    for (const auto& row : set->rows) {
      if (fast.predict(row) != slow.predict(row)) {
        std::cerr << "MISMATCH (" << what
                  << "): presorted and per-node-sort trees disagree\n";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool self_check_only =
      argc > 1 && std::strcmp(argv[1], "--self-check") == 0;

  const std::size_t n = self_check_only ? 800 : 20000;
  const std::size_t d = self_check_only ? 12 : 24;
  const int num_trees = self_check_only ? 16 : 64;
  const int classes = self_check_only ? 4 : 6;
  const std::size_t num_queries = self_check_only ? 300 : 4000;
  const int k = 5;
  constexpr std::uint64_t kForestSeed = 7;

  std::cout
      << "==============================================================\n"
         "Columnar ML training kernels vs seed-faithful references\n"
         "==============================================================\n\n";

  Rng rng(4242);
  const auto train = make_classification(n, d, classes, rng);
  const auto probe = make_classification(num_queries, d, classes, rng);

  // --- Self-check 1: presorted vs per-node-sort single trees ---------------
  {
    Rng small_rng(99);
    const auto small = make_classification(1200, 10, 4, small_rng);
    const auto small_probe = make_classification(200, 10, 4, small_rng);
    ml::TreeOptions deep;  // defaults: depth 12, min_samples 2, all features
    ml::TreeOptions shallow;
    shallow.max_depth = 4;
    shallow.min_samples = 25;
    ml::TreeOptions subset;
    subset.max_features = 3;
    if (!check_tree_pair(small, small_probe, deep, 11, "deep") ||
        !check_tree_pair(small, small_probe, shallow, 12, "shallow") ||
        !check_tree_pair(small, small_probe, subset, 13, "feature-subset")) {
      return EXIT_FAILURE;
    }
    // Corners: a constant feature column, and all-equal labels.
    ml::Dataset corner = small;
    for (auto& row : corner.rows) row[3] = 1.5;
    if (!check_tree_pair(corner, small_probe, subset, 14, "constant-feature")) {
      return EXIT_FAILURE;
    }
    ml::Dataset flat = small;
    std::fill(flat.labels.begin(), flat.labels.end(), 0);
    if (!check_tree_pair(flat, small_probe, deep, 15, "all-equal-labels")) {
      return EXIT_FAILURE;
    }
    std::cout << "self-check OK: presorted splits match per-node-sort splits "
                 "(5 configs incl. corners)\n";
  }

  // --- Self-check 2 + timing: parallel presorted forest vs seed replica ----
  ml::ForestOptions forest_options;
  forest_options.num_trees = num_trees;

  reference::SeedForest seed_forest(forest_options, kForestSeed);
  const auto r0 = Clock::now();
  seed_forest.fit(train);
  const auto r1 = Clock::now();

  ml::RandomForest forest(forest_options, kForestSeed);
  const auto f0 = Clock::now();
  forest.fit(train);
  const auto f1 = Clock::now();

  for (const auto& row : probe.rows) {
    if (forest.predict(row) != seed_forest.predict(row)) {
      return fail("parallel presorted forest disagrees with the serial seed "
                  "replica");
    }
  }
  std::cout << "self-check OK: forest predictions identical to the serial "
               "seed replica over " << probe.size() << " probe rows\n";

  // --- Self-check 3 + timing: kNN batch kernel vs references ---------------
  ml::KnnClassifier knn(k);
  knn.fit(train);

  const auto kn0 = Clock::now();
  std::vector<int> naive(probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    naive[i] = seed_knn_predict(train, k, probe.rows[i]);
  }
  const auto kn1 = Clock::now();

  const auto kb0 = Clock::now();
  const auto batch = knn.predict_all(probe);
  const auto kb1 = Clock::now();

  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (batch[i] != knn.predict(probe.rows[i])) {
      return fail("kNN predict_all differs from per-row predict");
    }
    if (batch[i] != naive[i]) {
      return fail("kNN batch kernel differs from the naive full-sort "
                  "reference");
    }
  }
  std::cout << "self-check OK: kNN batch == per-row predict == naive "
               "reference over " << probe.size() << " queries\n\n";

  if (self_check_only) {
    std::cout << "--self-check: validation passed, timing skipped\n";
    pmiot::obs::emit_if_enabled("ml_train");
    return EXIT_SUCCESS;
  }

  const double ref_ms = ms_between(r0, r1);
  const double fit_ms = ms_between(f0, f1);
  const double forest_speedup = ref_ms / fit_ms;
  const double knn_naive_ms = ms_between(kn0, kn1);
  const double knn_batch_ms = ms_between(kb0, kb1);
  const double knn_speedup = knn_naive_ms / knn_batch_ms;

  const double trees_total = static_cast<double>(num_trees);
  Table table({"kernel", "time (s)", "throughput"});
  table.add_row()
      .cell("forest fit, seed replica (serial, per-node sort)")
      .cell(ref_ms / 1e3)
      .cell(trees_total / (ref_ms / 1e3), 2);
  table.add_row()
      .cell("forest fit, columnar (presorted, parallel)")
      .cell(fit_ms / 1e3)
      .cell(trees_total / (fit_ms / 1e3), 2);
  table.add_row()
      .cell("knn predict, seed replica (per query, full sort)")
      .cell(knn_naive_ms / 1e3)
      .cell(static_cast<double>(probe.size()) / (knn_naive_ms / 1e3), 1);
  table.add_row()
      .cell("knn predict_all, blocked batch kernel")
      .cell(knn_batch_ms / 1e3)
      .cell(static_cast<double>(probe.size()) / (knn_batch_ms / 1e3), 1);
  table.print(std::cout,
              "train " + std::to_string(n) + " x " + std::to_string(d) + ", " +
                  std::to_string(num_trees) + " trees, " +
                  std::to_string(probe.size()) +
                  " kNN queries (outputs verified); trees/s resp. queries/s");

  std::cout << "\nforest fit speedup: " << format_double(forest_speedup, 1)
            << "x; knn batch speedup: " << format_double(knn_speedup, 1)
            << "x\n";

  // --- SIMD kernel micro: blocked kNN tile distances -----------------------
  // The predict_all inner kernel in isolation: one column-major training
  // tile, many query rows, dispatched vs scalar (bitwise-verified first).
  double knn_tile_speedup = 1.0;
  {
    const std::size_t rows = 4096;
    std::vector<double> cols(d * rows);
    std::vector<double> norm2(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto& src = train.rows[r % train.size()];
      double s = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        cols[c * rows + r] = src[c];
        s += src[c] * src[c];
      }
      norm2[r] = s;
    }
    std::vector<double> out_a(rows), out_b(rows);
    const auto& q0 = probe.rows[0];
    double q2 = 0.0;
    for (std::size_t c = 0; c < d; ++c) q2 += q0[c] * q0[c];
    simd::knn_tile_dist2(q0.data(), d, cols.data(), rows, q2, norm2.data(),
                         out_a.data());
    simd::scalar::knn_tile_dist2(q0.data(), d, cols.data(), rows, q2,
                                 norm2.data(), out_b.data());
    if (out_a != out_b) {
      return fail("dispatched knn_tile_dist2 differs from scalar");
    }

    constexpr int kReps = 2000;
    double sink = 0.0;
    const auto ts0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      const auto& q = probe.rows[static_cast<std::size_t>(r) % probe.size()];
      double qq = 0.0;
      for (std::size_t c = 0; c < d; ++c) qq += q[c] * q[c];
      simd::scalar::knn_tile_dist2(q.data(), d, cols.data(), rows, qq,
                                   norm2.data(), out_b.data());
      sink += out_b[static_cast<std::size_t>(r) % rows];
    }
    const auto ts1 = Clock::now();
    const auto tv0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      const auto& q = probe.rows[static_cast<std::size_t>(r) % probe.size()];
      double qq = 0.0;
      for (std::size_t c = 0; c < d; ++c) qq += q[c] * q[c];
      simd::knn_tile_dist2(q.data(), d, cols.data(), rows, qq, norm2.data(),
                           out_a.data());
      sink += out_a[static_cast<std::size_t>(r) % rows];
    }
    const auto tv1 = Clock::now();
    if (!(sink == sink)) return EXIT_FAILURE;  // keep the loops live

    knn_tile_speedup = ms_between(ts0, ts1) / ms_between(tv0, tv1);
    std::cout << "simd kNN tile kernel (backend " << simd::backend() << ", "
              << rows << " x " << d << "): "
              << format_double(knn_tile_speedup, 1) << "x vs scalar\n";
  }

  bench::BenchJson json("ml_train");
  json.config("rows", n)
      .config("features", d)
      .config("classes", classes)
      .config("trees", num_trees)
      .config("knn_queries", probe.size())
      .config("knn_k", k)
      .config("simd_backend", simd::backend());
  json.result("forest_fit_reference", ref_ms, trees_total / (ref_ms / 1e3),
              "trees/s")
      .result("forest_fit_columnar", fit_ms, trees_total / (fit_ms / 1e3),
              "trees/s")
      .result("knn_predict_reference", knn_naive_ms,
              static_cast<double>(probe.size()) / (knn_naive_ms / 1e3),
              "queries/s")
      .result("knn_predict_batch", knn_batch_ms,
              static_cast<double>(probe.size()) / (knn_batch_ms / 1e3),
              "queries/s");
  json.metric("forest_fit_speedup", forest_speedup)
      .metric("knn_batch_speedup", knn_speedup)
      .metric("simd_knn_tile_speedup", knn_tile_speedup)
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';

  pmiot::obs::emit_if_enabled("ml_train");
  return EXIT_SUCCESS;
}
