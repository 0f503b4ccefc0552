#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::ml {

static_assert(sizeof(DecisionTree::Node) == 16,
              "a node is one double and two ints");

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

/// The threshold between adjacent distinct sorted values a < b: their
/// midpoint, unless it rounds up to b (a and b adjacent doubles), in which
/// case a. Either way exactly the values <= a go left, the split the scan
/// scored.
double split_threshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return mid < b ? mid : a;
}

int majority(const std::vector<std::size_t>& counts) {
  return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                          counts.begin());
}

/// Reusable per-thread working memory for the presorted builder. Forest
/// trees run on `pmiot::par` pool threads, which are long-lived, so the
/// buffers are allocated once per thread instead of once per tree.
struct TreeScratch {
  // Ping-pong per-feature sorted (row, value, label, weight) entries, flat
  // [f * n + rank]. A node reads its segment from one buffer and partitions
  // it into the other, so there is no spill-and-copy-back pass.
  std::vector<std::uint32_t> pos[2];
  std::vector<double> val[2];
  std::vector<int> lab[2];
  std::vector<std::uint32_t> wgt[2];
  std::vector<unsigned char> goes_left;  // by row id
  std::vector<std::size_t> counts, left_counts, right_counts;
  std::vector<std::size_t> split_left, split_right;
  std::vector<std::size_t> features;
};

TreeScratch& tree_scratch() {
  static thread_local TreeScratch scratch;
  return scratch;
}

/// Sizes a scratch buffer to `n` elements. Growth allocates exactly `n`:
/// a tree's entry count varies with its bootstrap, and `resize` would
/// double the old capacity (and copy the dead contents) on a small step up.
template <class T>
void size_scratch(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) {
    v.clear();
    v.reserve(n);
  }
  v.resize(n);
}

std::size_t count_drawn(std::span<const std::uint32_t> draws) {
  return static_cast<std::size_t>(
      std::count_if(draws.begin(), draws.end(), [](auto w) { return w != 0; }));
}

}  // namespace

/// Grows a tree over per-feature presorted orders of a weighted sample.
///
/// A bootstrap is a multiset of rows; the builder keeps one entry per
/// distinct drawn row and carries its draw count as an integer weight.
/// Instead of re-sorting every candidate feature at every node (the
/// `reference::PerNodeSortTree` oracle, run on the expanded sample), the
/// builder materializes each feature's (row, value, label, weight) entries
/// in ascending value order once, then:
///
///  * split search is a linear scan of the node's segment of that order.
///    Every boundary it scores lies between two distinct adjacent values,
///    and the class counts on each side of one are the same integers
///    whether an equal-value run is expanded into copies or weighted. So
///    the scan scores the same boundaries, in the same order, with the same
///    doubles as the reference, and selects bit-identical splits;
///  * after a split is chosen, every feature's segment is stably
///    partitioned into the left and right children, which preserves sorted
///    order without comparisons — O(d·n) per level. Children that are
///    about to become leaves (decided from the split's integer label
///    counts, exactly the checks the recursion would apply) are emitted
///    directly, without a recursive call.
///
/// Sizes `m`, `n_left` and `n_right` are weighted, so `min_samples` and the
/// leaf tests count draws, as the reference does; entry ranges [lo, hi)
/// only address the scratch arrays. The entries are kept in parallel flat
/// arrays (not an array of structs) so the hot scan reads values, labels
/// and weights as contiguous streams.
class PresortedBuilder {
 public:
  PresortedBuilder(DecisionTree& tree, const DatasetView& view,
                   std::span<const std::uint32_t> draws)
      : tree_(tree),
        view_(view),
        draws_(draws),
        n_(count_drawn(draws)),
        d_(view.width()),
        k_(static_cast<std::size_t>(view.num_classes())),
        s_(tree_scratch()) {}

  /// Grows the tree over the `m` draws of `draws_`.
  void run(std::size_t m) {
    if (d_ == 0) {
      // No features: the reference builder finds no split and emits a
      // single leaf.
      std::vector<std::size_t> counts(k_, 0);
      for (std::size_t r = 0; r < draws_.size(); ++r) {
        counts[static_cast<std::size_t>(view_.label(r))] += draws_[r];
      }
      tree_.nodes_.push_back(DecisionTree::Node{0.0, -1, majority(counts)});
      return;
    }
    // One spare slot past the last feature: the order derivation writes
    // every row's entry before deciding whether to keep it.
    for (int b = 0; b < 2; ++b) {
      size_scratch(s_.pos[b], d_ * n_ + 1);
      size_scratch(s_.val[b], d_ * n_ + 1);
      size_scratch(s_.lab[b], d_ * n_ + 1);
      size_scratch(s_.wgt[b], d_ * n_ + 1);
    }
    size_scratch(s_.goes_left, view_.rows());
    s_.counts.assign(k_, 0);
    s_.left_counts.assign(k_, 0);
    s_.right_counts.assign(k_, 0);
    s_.split_left.assign(k_, 0);
    s_.split_right.assign(k_, 0);
    init_orders();
    build(0, n_, m, 0, 0);
  }

 private:
  std::uint32_t* pos(int buf, std::size_t f) {
    return s_.pos[buf].data() + f * n_;
  }
  double* val(int buf, std::size_t f) { return s_.val[buf].data() + f * n_; }
  int* lab(int buf, std::size_t f) { return s_.lab[buf].data() + f * n_; }
  std::uint32_t* wgt(int buf, std::size_t f) {
    return s_.wgt[buf].data() + f * n_;
  }

  /// Fills buffer 0 with the per-feature sorted entries: each feature's
  /// shared full-data order with the undrawn rows filtered out. No per-tree
  /// sort at all.
  void init_orders() {
    const std::size_t rows = view_.rows();
    for (std::size_t f = 0; f < d_; ++f) {
      const std::uint32_t* si = view_.sort_index(f).data();
      const double* sv = view_.sorted_values(f).data();
      const int* sl = view_.sorted_labels(f).data();
      std::uint32_t* pf = pos(0, f);
      double* vf = val(0, f);
      int* lf = lab(0, f);
      std::uint32_t* wf = wgt(0, f);
      std::size_t out = 0;
      for (std::size_t rank = 0; rank < rows; ++rank) {
        const std::uint32_t row = si[rank];
        const std::uint32_t w = draws_[row];
        // Branchless: an undrawn row's entry is overwritten by the next.
        pf[out] = row;
        vf[out] = sv[rank];
        lf[out] = sl[rank];
        wf[out] = w;
        out += w != 0 ? 1 : 0;
      }
    }
  }

  int push_leaf(int depth, int label) {
    tree_.depth_ = std::max(tree_.depth_, depth);
    const int id = static_cast<int>(tree_.nodes_.size());
    tree_.nodes_.push_back(DecisionTree::Node{0.0, -1, label});
    return id;
  }

  /// Grows the node covering entries [lo, hi) of every feature's order in
  /// buffer `cur`, which hold `m` draws. Mirrors the reference builder
  /// statement for statement where scores are concerned.
  int build(std::size_t lo, std::size_t hi, std::size_t m, int depth,
            int cur) {
    tree_.depth_ = std::max(tree_.depth_, depth);
    std::fill(s_.counts.begin(), s_.counts.end(), 0);
    {
      const int* l0 = lab(cur, 0);
      const std::uint32_t* w0 = wgt(cur, 0);
      for (std::size_t r = lo; r < hi; ++r) {
        s_.counts[static_cast<std::size_t>(l0[r])] += w0[r];
      }
    }
    const int node_label = majority(s_.counts);
    const double node_gini = gini(s_.counts, m);

    // Pushed as a leaf; a split below overwrites it in place.
    const int node_id = static_cast<int>(tree_.nodes_.size());
    tree_.nodes_.push_back(DecisionTree::Node{0.0, -1, node_label});

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
    std::size_t best_n_left = 0;

    // Division-free rejection filter for the boundary scan. In exact
    // arithmetic the reference score
    //   (n_left * gini_left + n_right * gini_right) / m
    // equals  1 - (Sl/i + Sr/j) / m,  where Sl/Sr are the integer sums of
    // squared class counts on each side and i/j the side sizes. Sl and Sr
    // update in O(1) integer ops per entry: a class count c that grows to
    // c + w adds 2(c + w)w - w², one that shrinks to c - w loses
    // 2(c - w)w + w². The cross-multiplied comparison
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
      const std::uint32_t* wf = wgt(cur, f);
      std::fill(s_.left_counts.begin(), s_.left_counts.end(), 0);
      std::copy(s_.counts.begin(), s_.counts.end(), s_.right_counts.begin());
      long long sq_left = 0;
      long long sq_right = sq_total;
      std::size_t n_left = 0;
      double filter_rhs =
          static_cast<double>(m) * ((1.0 - best_score) + kFilterSlack);
      for (std::size_t r = lo; r + 1 < hi; ++r) {
        const auto lbl = static_cast<std::size_t>(lf[r]);
        const std::size_t w = wf[r];
        const auto lw = static_cast<long long>(w);
        const auto cl = static_cast<long long>(s_.left_counts[lbl] += w);
        const auto cr = static_cast<long long>(s_.right_counts[lbl] -= w);
        sq_left += (2 * cl - lw) * lw;
        sq_right -= (2 * cr + lw) * lw;
        n_left += w;
        // Cannot split between equal values (-0.0 == 0.0 counts as equal;
        // NaN == NaN does not, so a NaN pair stays a boundary).
        if (vf[r] == vf[r + 1]) continue;
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
          best_threshold = split_threshold(vf[r], vf[r + 1]);
          best_n_left = n_left;
          filter_rhs =
              static_cast<double>(m) * ((1.0 - best_score) + kFilterSlack);
        }
      }
    }

    // One add per node (not per boundary) keeps the scan loop untouched.
    // Counted in draws: every feature walks the m-1 boundaries of the
    // expanded sample, equal-value ones included.
    boundary_scans_counter().add(
        static_cast<std::uint64_t>(s_.features.size()) * (m - 1));

    if (best_feature < 0) return node_id;  // no impurity-reducing split found
    nodes_split_counter().add();

    // Mark each row's side once; the same pass collects the split's left
    // label counts (integers, so identical to what the left child's own
    // counting pass would produce).
    std::size_t n_left = 0;
    std::size_t left_entries = 0;
    {
      const auto bf = static_cast<std::size_t>(best_feature);
      const std::uint32_t* pf = pos(cur, bf);
      const double* vf = val(cur, bf);
      const int* lf = lab(cur, bf);
      const std::uint32_t* wf = wgt(cur, bf);
      std::fill(s_.split_left.begin(), s_.split_left.end(), 0);
      for (std::size_t r = lo; r < hi; ++r) {
        const bool left = vf[r] <= best_threshold;  // NaN goes right
        s_.goes_left[pf[r]] = left ? 1 : 0;
        if (left) {
          s_.split_left[static_cast<std::size_t>(lf[r])] += wf[r];
          n_left += wf[r];
          ++left_entries;
        }
      }
    }
    PMIOT_ASSERT(n_left == best_n_left,
                 "applied split differs from the scored one");
    const std::size_t n_right = m - n_left;
    for (std::size_t c = 0; c < k_; ++c) {
      s_.split_right[c] = s_.counts[c] - s_.split_left[c];
    }

    // Apply the recursion's own leaf tests to each child now: a child that
    // is certain to leaf out needs no recursive call.
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

    if (!(left_leaf && right_leaf)) partition(lo, hi, left_entries, cur);
    // Children are emitted left-first, so nodes_ keeps the reference
    // builder's pre-order layout: the left child is node_id + 1, which is
    // what lets Node store only the right child.
    const std::size_t mid = lo + left_entries;
    const int left = left_leaf ? push_leaf(depth + 1, left_label)
                               : build(lo, mid, n_left, depth + 1, cur ^ 1);
    const int right = right_leaf ? push_leaf(depth + 1, right_label)
                                 : build(mid, hi, n_right, depth + 1, cur ^ 1);

    PMIOT_ASSERT(left == node_id + 1, "nodes not emitted in pre-order");
    auto& node = tree_.nodes_[static_cast<std::size_t>(node_id)];
    node.threshold = best_threshold;
    node.feature = best_feature;
    node.next = right;
    return node_id;
  }

  /// Stably partitions every feature's [lo, hi) segment from buffer `cur`
  /// into buffer `cur ^ 1`, the `left_entries` left entries first, order
  /// preserved.
  void partition(std::size_t lo, std::size_t hi, std::size_t left_entries,
                 int cur) {
    const unsigned char* mask = s_.goes_left.data();
    for (std::size_t f = 0; f < d_; ++f) {
      const std::uint32_t* spf = pos(cur, f);
      const double* svf = val(cur, f);
      const int* slf = lab(cur, f);
      const std::uint32_t* swf = wgt(cur, f);
      std::uint32_t* dpf = pos(cur ^ 1, f);
      double* dvf = val(cur ^ 1, f);
      int* dlf = lab(cur ^ 1, f);
      std::uint32_t* dwf = wgt(cur ^ 1, f);
      std::size_t out_l = lo;
      std::size_t out_r = lo + left_entries;
      // Branchless two-way split: select the destination cursor with a
      // conditional move instead of a branch.
      for (std::size_t r = lo; r < hi; ++r) {
        const std::uint32_t p = spf[r];
        const std::size_t keep_left = mask[p];
        const std::size_t dst = keep_left ? out_l : out_r;
        dpf[dst] = p;
        dvf[dst] = svf[r];
        dlf[dst] = slf[r];
        dwf[dst] = swf[r];
        out_l += keep_left;
        out_r += 1 - keep_left;
      }
    }
  }

  DecisionTree& tree_;
  const DatasetView& view_;
  std::span<const std::uint32_t> draws_;
  const std::size_t n_;  ///< distinct drawn rows: entries per feature
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
  const DatasetView view(data);
  const std::vector<std::uint32_t> draws(data.size(), 1);
  fit_view(view, draws);
}

void DecisionTree::fit_view(const DatasetView& view,
                            std::span<const std::uint32_t> draws) {
  PMIOT_CHECK(draws.size() == view.rows(), "one draw count per view row");
  const std::size_t m =
      std::accumulate(draws.begin(), draws.end(), std::size_t{0});
  PMIOT_CHECK(m > 0, "cannot fit on an empty sample");
  nodes_.clear();
  depth_ = 0;
  width_ = view.width();
  PresortedBuilder builder(*this, view, draws);
  builder.run(m);
}

int DecisionTree::predict(std::span<const double> row) const {
  PMIOT_CHECK(!nodes_.empty(), "classifier not fitted");
  PMIOT_CHECK(row.size() >= width_, "row width mismatch");
  return walk(nodes_.data(), 0, row.data());
}

}  // namespace pmiot::ml
