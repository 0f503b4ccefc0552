#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "simd/simd.h"

namespace pmiot::ml {
namespace {

obs::Counter& nodes_split_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("ml.tree.nodes_split");
  return c;
}

obs::Counter& boundary_scans_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("ml.tree.boundary_scans");
  return c;
}

/// Gini impurity of the label counts in `counts` over `total` samples.
/// Classes with count 0 contribute exactly 0.0 (g -= 0.0 leaves g unchanged
/// bitwise), so the value is independent of whether `counts` is sized to the
/// node's classes or the full dataset's, and the zero-count skip below is a
/// pure division saving — the builder and its reference rely on that.
double gini(const std::vector<std::size_t>& counts, std::size_t total) {
  double g = 1.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

int majority(const std::vector<std::size_t>& counts) {
  return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                          counts.begin());
}

/// Reusable per-thread working memory for the presorted builder. Forest
/// trees run on `pmiot::par` pool threads, which are long-lived, so the
/// triplet buffers (tens of MB at forest scale) are allocated once per
/// thread instead of once per tree.
struct TreeScratch {
  // Ping-pong per-feature sorted triplets, flat [f * n + rank]. A node reads
  // its segment from one buffer and partitions it into the other, so there
  // is no spill-and-copy-back pass.
  std::vector<std::uint32_t> pos[2];
  std::vector<double> val[2];
  std::vector<int> lab[2];
  std::vector<unsigned char> goes_left;  // by sample position
  std::vector<unsigned char> neq;        // splittable-boundary mask, by rank
  std::vector<unsigned char> side;       // <= threshold mask, by rank
  std::vector<std::size_t> counts, left_counts, right_counts;
  std::vector<std::size_t> split_left, split_right;
  std::vector<std::size_t> features;
  std::vector<std::uint32_t> offsets, row_positions, cursor;
};

TreeScratch& tree_scratch() {
  static thread_local TreeScratch scratch;
  return scratch;
}

}  // namespace

/// Grows a tree over per-feature presorted orders.
///
/// Instead of re-sorting every candidate feature at every node (the
/// `reference::PerNodeSortTree` oracle), the builder materializes each
/// feature's (position, value, label) triplets in ascending value order
/// once, then:
///
///  * split search is a linear scan of the node's segment of that order —
///    the same boundaries, the same score arithmetic, and the same
///    first-wins tie-breaking as the reference, so both builders select
///    bit-identical splits;
///  * after a split is chosen, every feature's segment is stably
///    partitioned into the left and right children, which preserves sorted
///    order without comparisons — O(d·n) per level. Children that are
///    about to become leaves (decided from the split's integer label
///    counts, exactly the checks the recursion would apply) are emitted
///    directly and their side of the partition is never written.
///
/// The triplets are kept in parallel flat arrays (not an array of structs)
/// so the hot scan reads values and labels as two contiguous streams.
class PresortedBuilder {
 public:
  PresortedBuilder(DecisionTree& tree, const DatasetView& view,
                   std::span<const std::size_t> sample)
      : tree_(tree),
        view_(view),
        sample_(sample),
        n_(sample.size()),
        d_(view.width()),
        k_(static_cast<std::size_t>(view.num_classes())),
        s_(tree_scratch()) {}

  void run() {
    if (d_ == 0) {
      // No features: the reference builder finds no split and emits a
      // single leaf.
      std::vector<std::size_t> counts(k_, 0);
      for (auto r : sample_) ++counts[static_cast<std::size_t>(view_.label(r))];
      tree_.nodes_.push_back(
          DecisionTree::Node{-1, 0.0, -1, -1, majority(counts)});
      return;
    }
    for (int b = 0; b < 2; ++b) {
      s_.pos[b].resize(d_ * n_);
      s_.val[b].resize(d_ * n_);
      s_.lab[b].resize(d_ * n_);
    }
    s_.goes_left.resize(n_);
    s_.neq.resize(n_);
    s_.side.resize(n_);
    s_.counts.assign(k_, 0);
    s_.left_counts.assign(k_, 0);
    s_.right_counts.assign(k_, 0);
    s_.split_left.assign(k_, 0);
    s_.split_right.assign(k_, 0);
    init_orders();
    build(0, n_, 0, 0);
  }

 private:
  std::uint32_t* pos(int buf, std::size_t f) {
    return s_.pos[buf].data() + f * n_;
  }
  double* val(int buf, std::size_t f) { return s_.val[buf].data() + f * n_; }
  int* lab(int buf, std::size_t f) { return s_.lab[buf].data() + f * n_; }

  /// Fills buffer 0 with the per-feature sorted triplets. With a shared
  /// `sort_index` on the view (the forest path), each feature's order for
  /// this sample is derived from the full-data order by a linear counting
  /// pass — no per-tree sort at all. Ties between equal values land in
  /// (row, draw) order rather than pure draw order, which is immaterial:
  /// split scores, thresholds, and partitions only ever distinguish
  /// *values*, never the order within an equal-value run.
  void init_orders() {
    const int* labels = view_.labels().data();
    if (view_.has_sort_index()) {
      const std::size_t rows = view_.rows();
      bool identity = n_ == rows;
      for (std::size_t p = 0; identity && p < n_; ++p) {
        identity = sample_[p] == p;
      }
      if (identity) {
        // Whole-dataset fit: the sample orders ARE the full-data orders.
        for (std::size_t f = 0; f < d_; ++f) {
          const auto si = view_.sort_index(f);
          const auto sv = view_.sorted_values(f);
          const auto sl = view_.sorted_labels(f);
          std::copy(si.begin(), si.end(), pos(0, f));
          std::copy(sv.begin(), sv.end(), val(0, f));
          std::copy(sl.begin(), sl.end(), lab(0, f));
        }
        return;
      }
      // Bucket the sample's positions by row id (ascending position within
      // each row), then emit them in each feature's full-data value order.
      s_.offsets.assign(rows + 1, 0);
      for (auto r : sample_) ++s_.offsets[r + 1];
      for (std::size_t i = 0; i < rows; ++i) s_.offsets[i + 1] += s_.offsets[i];
      s_.row_positions.resize(n_);
      s_.cursor.assign(s_.offsets.begin(), s_.offsets.end() - 1);
      for (std::size_t p = 0; p < n_; ++p) {
        s_.row_positions[s_.cursor[sample_[p]]++] = static_cast<std::uint32_t>(p);
      }
      for (std::size_t f = 0; f < d_; ++f) {
        const std::uint32_t* si = view_.sort_index(f).data();
        const double* sv = view_.sorted_values(f).data();
        const int* sl = view_.sorted_labels(f).data();
        std::uint32_t* pf = pos(0, f);
        double* vf = val(0, f);
        int* lf = lab(0, f);
        std::size_t out = 0;
        for (std::size_t rank = 0; rank < rows; ++rank) {
          const std::uint32_t row = si[rank];
          const std::uint32_t begin = s_.offsets[row];
          const std::uint32_t end = s_.offsets[row + 1];
          for (std::uint32_t j = begin; j < end; ++j) {
            pf[out] = s_.row_positions[j];
            vf[out] = sv[rank];
            lf[out] = sl[rank];
            ++out;
          }
        }
      }
      return;
    }
    // No shared index: argsort each feature over the sample directly.
    std::vector<std::pair<double, std::uint32_t>> keyed(n_);
    for (std::size_t f = 0; f < d_; ++f) {
      const double* col = view_.column(f).data();
      for (std::size_t p = 0; p < n_; ++p) {
        keyed[p] = {col[sample_[p]], static_cast<std::uint32_t>(p)};
      }
      std::sort(keyed.begin(), keyed.end());
      std::uint32_t* pf = pos(0, f);
      double* vf = val(0, f);
      int* lf = lab(0, f);
      for (std::size_t r = 0; r < n_; ++r) {
        pf[r] = keyed[r].second;
        vf[r] = keyed[r].first;
        lf[r] = labels[sample_[keyed[r].second]];
      }
    }
  }

  int push_leaf(int depth, int label) {
    tree_.depth_ = std::max(tree_.depth_, depth);
    const int id = static_cast<int>(tree_.nodes_.size());
    tree_.nodes_.push_back(DecisionTree::Node{-1, 0.0, -1, -1, label});
    return id;
  }

  /// Grows the node covering segment [lo, hi) of every feature's order in
  /// buffer `cur`. Mirrors the reference builder statement for statement
  /// where scores are concerned.
  int build(std::size_t lo, std::size_t hi, int depth, int cur) {
    tree_.depth_ = std::max(tree_.depth_, depth);
    const std::size_t m = hi - lo;
    std::fill(s_.counts.begin(), s_.counts.end(), 0);
    {
      const int* l0 = lab(cur, 0);
      for (std::size_t r = lo; r < hi; ++r) {
        ++s_.counts[static_cast<std::size_t>(l0[r])];
      }
    }
    const int node_label = majority(s_.counts);
    const double node_gini = gini(s_.counts, m);

    const int node_id = static_cast<int>(tree_.nodes_.size());
    tree_.nodes_.push_back(DecisionTree::Node{-1, 0.0, -1, -1, node_label});

    if (depth >= tree_.options_.max_depth ||
        m < tree_.options_.min_samples || node_gini == 0.0) {
      return node_id;
    }

    // Candidate features: identical draw order to the reference builder, so
    // a forest tree consumes its RNG stream the same way on both paths.
    s_.features.resize(d_);
    std::iota(s_.features.begin(), s_.features.end(), 0);
    if (tree_.options_.max_features > 0 &&
        tree_.options_.max_features < d_) {
      tree_.rng_.shuffle(s_.features);
      s_.features.resize(tree_.options_.max_features);
    }

    double best_score = node_gini;
    int best_feature = -1;
    double best_threshold = 0.0;

    // Division-free rejection filter for the boundary scan. In exact
    // arithmetic the reference score
    //   (n_left * gini_left + n_right * gini_right) / m
    // equals  1 - (Sl/i + Sr/j) / m,  where Sl/Sr are the integer sums of
    // squared class counts on each side and i/j the side sizes. Sl and Sr
    // update in O(1) integer ops per boundary, and the cross-multiplied
    // comparison
    //   Sl*j + Sr*i <= i*j * m*(1 - best + slack)
    // proves "score >= best - slack" without a single division. Both the
    // reference's computed score and this bound sit within ~1e-14 of the
    // exact value, so with slack = 8e-13 a filtered boundary provably fails
    // the reference's `score + 1e-12 < best` test — skipping it performs no
    // selection-relevant float op and leaves split choice bit-identical.
    // The full (reference-exact) evaluation only runs for boundaries that
    // might actually win. Cross products stay within int64 for
    // m <= 2^21; larger nodes fall back to evaluating every boundary.
    constexpr double kFilterSlack = 8e-13;
    const bool use_filter = m <= (std::size_t{1} << 21);
    long long sq_total = 0;
    if (use_filter) {
      for (std::size_t c = 0; c < k_; ++c) {
        const auto v = static_cast<long long>(s_.counts[c]);
        sq_total += v * v;
      }
    }

    for (auto f : s_.features) {
      const double* vf = val(cur, f);
      const int* lf = lab(cur, f);
      std::fill(s_.left_counts.begin(), s_.left_counts.end(), 0);
      std::copy(s_.counts.begin(), s_.counts.end(), s_.right_counts.begin());
      long long sq_left = 0;
      long long sq_right = sq_total;
      double filter_rhs =
          static_cast<double>(m) * ((1.0 - best_score) + kFilterSlack);
      // The equal-adjacent-values test is hoisted into one vector pass over
      // the segment; the scan below reads the byte mask instead of two
      // doubles per boundary. `x != x_next` is exactly the mask's
      // definition, so the set of evaluated boundaries is unchanged.
      simd::mask_adjacent_neq(vf + lo, m, s_.neq.data());
      for (std::size_t r = lo; r + 1 < hi; ++r) {
        const auto lbl = static_cast<std::size_t>(lf[r]);
        const auto cl = static_cast<long long>(++s_.left_counts[lbl]);
        const auto cr = static_cast<long long>(--s_.right_counts[lbl]);
        sq_left += 2 * cl - 1;
        sq_right -= 2 * cr + 1;
        if (s_.neq[r - lo] == 0) continue;  // cannot split between equal values
        const auto n_left = r + 1 - lo;
        const auto n_right = m - n_left;
        if (use_filter) {
          const auto il = static_cast<long long>(n_left);
          const auto ir = static_cast<long long>(n_right);
          const double cross =
              static_cast<double>(sq_left * ir + sq_right * il);
          if (cross <= static_cast<double>(il * ir) * filter_rhs) continue;
        }
        const double score =
            (static_cast<double>(n_left) * gini(s_.left_counts, n_left) +
             static_cast<double>(n_right) * gini(s_.right_counts, n_right)) /
            static_cast<double>(m);
        if (score + 1e-12 < best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vf[r] + vf[r + 1]);
          filter_rhs =
              static_cast<double>(m) * ((1.0 - best_score) + kFilterSlack);
        }
      }
    }

    // One add per node (not per boundary) keeps the scan loop untouched;
    // every feature walks exactly m-1 boundaries.
    boundary_scans_counter().add(
        static_cast<std::uint64_t>(s_.features.size()) * (m - 1));

    if (best_feature < 0) return node_id;  // no impurity-reducing split found
    nodes_split_counter().add();

    // Mark each sample position's side once; the same pass collects the
    // split's left label counts (integers, so identical to what the left
    // child's own counting pass would produce).
    std::size_t n_left = 0;
    {
      const auto bf = static_cast<std::size_t>(best_feature);
      const std::uint32_t* pf = pos(cur, bf);
      const double* vf = val(cur, bf);
      const int* lf = lab(cur, bf);
      std::fill(s_.split_left.begin(), s_.split_left.end(), 0);
      // Vectorized compare (same <= semantics, NaN false), scalar scatter.
      simd::mask_leq(vf + lo, m, best_threshold, s_.side.data());
      for (std::size_t r = lo; r < hi; ++r) {
        const bool left = s_.side[r - lo] != 0;
        goes_left_set(pf[r], left);
        if (left) {
          ++s_.split_left[static_cast<std::size_t>(lf[r])];
          ++n_left;
        }
      }
    }
    PMIOT_ASSERT(n_left > 0 && n_left < m, "degenerate split selected");
    const std::size_t n_right = m - n_left;
    for (std::size_t c = 0; c < k_; ++c) {
      s_.split_right[c] = s_.counts[c] - s_.split_left[c];
    }

    // Apply the recursion's own leaf tests to each child now: a child that
    // is certain to leaf out never needs its side of the partition.
    const bool depth_stop = depth + 1 >= tree_.options_.max_depth;
    const bool left_leaf = depth_stop ||
                           n_left < tree_.options_.min_samples ||
                           gini(s_.split_left, n_left) == 0.0;
    const bool right_leaf = depth_stop ||
                            n_right < tree_.options_.min_samples ||
                            gini(s_.split_right, n_right) == 0.0;

    // Leaf labels are fixed by the integer counts, so resolve them before
    // the recursion reuses the scratch count vectors.
    const int left_label = left_leaf ? majority(s_.split_left) : 0;
    const int right_label = right_leaf ? majority(s_.split_right) : 0;

    int left = -1;
    int right = -1;
    if (left_leaf && right_leaf) {
      left = push_leaf(depth + 1, left_label);
      right = push_leaf(depth + 1, right_label);
    } else {
      partition(lo, hi, n_left, cur, left_leaf, right_leaf);
      // Children are emitted left-first either way, so nodes_ keeps the
      // reference builder's pre-order layout.
      if (left_leaf) {
        left = push_leaf(depth + 1, left_label);
        right = build(lo + n_left, hi, depth + 1, cur ^ 1);
      } else if (right_leaf) {
        left = build(lo, lo + n_left, depth + 1, cur ^ 1);
        right = push_leaf(depth + 1, right_label);
      } else {
        left = build(lo, lo + n_left, depth + 1, cur ^ 1);
        right = build(lo + n_left, hi, depth + 1, cur ^ 1);
      }
    }

    auto& node = tree_.nodes_[static_cast<std::size_t>(node_id)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return node_id;
  }

  void goes_left_set(std::uint32_t p, bool left) {
    s_.goes_left[p] = left ? 1 : 0;
  }

  /// Stably partitions every feature's [lo, hi) segment from buffer `cur`
  /// into buffer `cur ^ 1` (left block first, order preserved). Sides whose
  /// child was already emitted as a leaf are skipped entirely.
  void partition(std::size_t lo, std::size_t hi, std::size_t n_left, int cur,
                 bool skip_left, bool skip_right) {
    const unsigned char* mask = s_.goes_left.data();
    for (std::size_t f = 0; f < d_; ++f) {
      const std::uint32_t* spf = pos(cur, f);
      const double* svf = val(cur, f);
      const int* slf = lab(cur, f);
      std::uint32_t* dpf = pos(cur ^ 1, f);
      double* dvf = val(cur ^ 1, f);
      int* dlf = lab(cur ^ 1, f);
      std::size_t out_l = lo;
      std::size_t out_r = lo + n_left;
      if (skip_left) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint32_t p = spf[r];
          if (mask[p] == 0) {
            dpf[out_r] = p;
            dvf[out_r] = svf[r];
            dlf[out_r] = slf[r];
            ++out_r;
          }
        }
      } else if (skip_right) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint32_t p = spf[r];
          if (mask[p] != 0) {
            dpf[out_l] = p;
            dvf[out_l] = svf[r];
            dlf[out_l] = slf[r];
            ++out_l;
          }
        }
      } else {
        // Branchless two-way split: select the destination cursor with a
        // conditional move instead of a branch.
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint32_t p = spf[r];
          const std::size_t keep_left = mask[p];
          const std::size_t dst = keep_left ? out_l : out_r;
          dpf[dst] = p;
          dvf[dst] = svf[r];
          dlf[dst] = slf[r];
          out_l += keep_left;
          out_r += 1 - keep_left;
        }
      }
    }
  }

  DecisionTree& tree_;
  const DatasetView& view_;
  std::span<const std::size_t> sample_;
  const std::size_t n_;
  const std::size_t d_;
  const std::size_t k_;
  TreeScratch& s_;
};

DecisionTree::DecisionTree(TreeOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.max_depth >= 1, "max_depth must be at least 1");
  PMIOT_CHECK(options.min_samples >= 1, "min_samples must be at least 1");
}

void DecisionTree::fit(const Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  DatasetView view(data);
  view.ensure_sort_index();
  std::vector<std::size_t> sample(data.size());
  std::iota(sample.begin(), sample.end(), 0);
  fit_view(view, sample);
}

void DecisionTree::fit_view(const DatasetView& view,
                            std::span<const std::size_t> sample) {
  PMIOT_CHECK(!sample.empty(), "cannot fit on an empty sample");
  for (auto r : sample) {
    PMIOT_CHECK(r < view.rows(), "sample row id out of range");
  }
  nodes_.clear();
  depth_ = 0;
  PresortedBuilder builder(*this, view, sample);
  builder.run();
}

int DecisionTree::predict(std::span<const double> row) const {
  PMIOT_CHECK(!nodes_.empty(), "classifier not fitted");
  int id = 0;
  while (nodes_[static_cast<std::size_t>(id)].feature >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    PMIOT_CHECK(static_cast<std::size_t>(n.feature) < row.size(),
                "row width mismatch");
    id = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right;
  }
  return nodes_[static_cast<std::size_t>(id)].label;
}

}  // namespace pmiot::ml
