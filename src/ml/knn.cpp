#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace pmiot::ml {
namespace {

// Tile sizes for the blocked batch kernel: a block of training rows stays
// cache-resident while a block of queries streams over it.
constexpr std::size_t kTrainTile = 128;
constexpr std::size_t kQueryTile = 16;

obs::Counter& tile_kernels_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("ml.knn.tile_kernels");
  return c;
}

}  // namespace

struct KnnClassifier::Neighbour {
  double dist2;
  std::uint32_t row;

  /// Total order: nearer first, equal distances in training-row order —
  /// this is what makes k-boundary votes deterministic with duplicated
  /// training points.
  friend bool operator<(const Neighbour& a, const Neighbour& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.row < b.row);
  }
};

KnnClassifier::KnnClassifier(int k) : k_(k) {
  PMIOT_CHECK(k >= 1, "k must be at least 1");
}

void KnnClassifier::fit(const Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  n_ = data.size();
  d_ = data.width();
  PMIOT_CHECK(n_ <= 0xffffffffULL, "dataset too large for 32-bit row ids");
  num_classes_ = data.num_classes();
  labels_ = data.labels;
  train_.resize(n_ * d_);
  norm2_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < d_; ++c) {
      const double v = data.rows[i][c];
      train_[i * d_ + c] = v;
      s += v * v;
    }
    norm2_[i] = s;
  }
}

void KnnClassifier::fold_tile(const double* query, double query_norm2,
                              std::size_t begin, std::size_t end,
                              std::size_t cap,
                              std::vector<Neighbour>& heap) const {
  for (std::size_t r = begin; r < end; ++r) {
    const double* t = train_.data() + r * d_;
    double dot = 0.0;
    for (std::size_t c = 0; c < d_; ++c) dot += query[c] * t[c];
    const Neighbour nb{query_norm2 + norm2_[r] - 2.0 * dot,
                       static_cast<std::uint32_t>(r)};
    if (heap.size() < cap) {
      heap.push_back(nb);
      std::push_heap(heap.begin(), heap.end());  // worst (greatest) on top
    } else if (nb < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = nb;
      std::push_heap(heap.begin(), heap.end());
    }
  }
}

int KnnClassifier::vote(std::vector<Neighbour>& nearest) const {
  std::sort(nearest.begin(), nearest.end());
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  for (const auto& nb : nearest) ++votes[static_cast<std::size_t>(labels_[nb.row])];
  // Majority vote; break ties in favour of the nearest neighbour's class.
  int best = labels_[nearest.front().row];
  for (std::size_t c = 0; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(c);
    }
  }
  return best;
}

int KnnClassifier::predict(std::span<const double> row) const {
  PMIOT_CHECK(n_ > 0, "classifier not fitted");
  PMIOT_CHECK(row.size() == d_, "row width mismatch");
  double q2 = 0.0;
  for (std::size_t c = 0; c < d_; ++c) q2 += row[c] * row[c];
  const auto cap = std::min<std::size_t>(static_cast<std::size_t>(k_), n_);
  std::vector<Neighbour> heap;
  heap.reserve(cap);
  for (std::size_t begin = 0; begin < n_; begin += kTrainTile) {
    fold_tile(row.data(), q2, begin, std::min(begin + kTrainTile, n_), cap,
              heap);
  }
  tile_kernels_counter().add((n_ + kTrainTile - 1) / kTrainTile);
  return vote(heap);
}

std::vector<int> KnnClassifier::predict_all(const Dataset& data) const {
  if (data.rows.empty()) return {};
  PMIOT_CHECK(n_ > 0, "classifier not fitted");
  const std::size_t cap = std::min<std::size_t>(static_cast<std::size_t>(k_), n_);
  const std::size_t num_queries = data.size();
  std::vector<int> out(num_queries);
  const std::size_t tiles = (num_queries + kQueryTile - 1) / kQueryTile;
  par::parallel_for(0, tiles, [&](std::size_t tile) {
    const std::size_t q_begin = tile * kQueryTile;
    const std::size_t q_end = std::min(q_begin + kQueryTile, num_queries);
    const std::size_t q_count = q_end - q_begin;
    std::vector<std::vector<Neighbour>> heaps(q_count);
    std::vector<double> q2(q_count);
    for (std::size_t qi = 0; qi < q_count; ++qi) {
      const auto& row = data.rows[q_begin + qi];
      PMIOT_CHECK(row.size() == d_, "row width mismatch");
      double s = 0.0;
      for (std::size_t c = 0; c < d_; ++c) s += row[c] * row[c];
      q2[qi] = s;
      heaps[qi].reserve(cap);
    }
    // Training tiles outer, queries inner: each ~cache-sized block of
    // training rows is reused across the whole query tile.
    for (std::size_t begin = 0; begin < n_; begin += kTrainTile) {
      const std::size_t end = std::min(begin + kTrainTile, n_);
      for (std::size_t qi = 0; qi < q_count; ++qi) {
        fold_tile(data.rows[q_begin + qi].data(), q2[qi], begin, end, cap,
                  heaps[qi]);
      }
    }
    // One add per shard (not per kernel call) keeps the tile loop tight.
    tile_kernels_counter().add(((n_ + kTrainTile - 1) / kTrainTile) * q_count);
    for (std::size_t qi = 0; qi < q_count; ++qi) {
      out[q_begin + qi] = vote(heaps[qi]);
    }
  });
  return out;
}

std::string KnnClassifier::name() const {
  return "knn(k=" + std::to_string(k_) + ")";
}

}  // namespace pmiot::ml
