// Tests for pmiot::simd: every dispatched kernel must be bit-identical to
// its scalar:: reference across vector-width remainders, exact ties, and
// non-finite inputs (DESIGN.md). On machines without AVX2 the dispatchers
// fall back to the references and these tests pass trivially; CI's
// determinism job covers the cross-build diff.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simd/simd.h"

namespace pmiot::simd {
namespace {

constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,  15,
                                  16, 17, 31, 32, 33, 63, 64, 100, 257};

std::vector<double> random_values(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(lo, hi);
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " diverges at element " << i;
  }
}

TEST(Simd, BackendMatchesActiveFlag) {
  const std::string name = backend();
  if (active()) {
    EXPECT_EQ(name, "avx2");
  } else {
    EXPECT_EQ(name, "scalar");
  }
}

TEST(Simd, LogEmissionScanMatchesScalar) {
  Rng rng(101);
  for (const std::size_t n : kSizes) {
    const auto xs = random_values(rng, n, -10.0, 10.0);
    std::vector<double> got(n), want(n);
    log_emission_scan(xs.data(), n, 1.25, -0.5, 3.7, got.data());
    scalar::log_emission_scan(xs.data(), n, 1.25, -0.5, 3.7, want.data());
    expect_bitwise_equal(got, want, "log_emission_scan");
  }
}

TEST(Simd, AddLogEmissionMatchesScalar) {
  Rng rng(102);
  for (const std::size_t n : kSizes) {
    const auto base = random_values(rng, n, -50.0, 0.0);
    const auto centers = random_values(rng, n, 0.0, 500.0);
    std::vector<double> got(n), want(n);
    add_log_emission(base.data(), 123.5, centers.data(), n, -2.1, 0.004,
                     got.data());
    scalar::add_log_emission(base.data(), 123.5, centers.data(), n, -2.1,
                             0.004, want.data());
    expect_bitwise_equal(got, want, "add_log_emission");
  }
}

TEST(Simd, FhmmStageGroupMatchesScalar) {
  Rng rng(103);
  for (const std::size_t n : {2u, 3u, 4u, 5u, 8u}) {
    for (const std::size_t s : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 33u}) {
      const auto cur = random_values(rng, n * s, -30.0, 0.0);
      const auto lt = random_values(rng, n * n, -8.0, 0.0);
      std::vector<std::int32_t> origin(n * s);
      for (std::size_t i = 0; i < origin.size(); ++i) {
        origin[i] = static_cast<std::int32_t>(rng.uniform_int(0, 1000));
      }
      std::vector<double> got(n * s), want(n * s);
      std::vector<std::int32_t> got_origin(n * s), want_origin(n * s);
      fhmm_stage_group(cur.data(), origin.data(), lt.data(), n, s,
                       got.data(), got_origin.data());
      scalar::fhmm_stage_group(cur.data(), origin.data(), lt.data(), n, s,
                               want.data(), want_origin.data());
      expect_bitwise_equal(got, want, "fhmm_stage_group values");
      EXPECT_EQ(got_origin, want_origin)
          << "origins diverge at n=" << n << " s=" << s;
    }
  }
}

TEST(Simd, FhmmStageGroupBreaksTiesTowardLowestState) {
  // All candidates exactly equal: the strict-> compare chain must keep the
  // first (lowest a) winner in every lane, at every span width.
  for (const std::size_t s : {1u, 3u, 4u, 7u, 12u}) {
    const std::size_t n = 4;
    const std::vector<double> cur(n * s, -1.5);
    const std::vector<double> lt(n * n, -0.25);
    std::vector<std::int32_t> origin(n * s);
    for (std::size_t i = 0; i < origin.size(); ++i) {
      origin[i] = static_cast<std::int32_t>(i);
    }
    std::vector<double> nxt(n * s);
    std::vector<std::int32_t> nxt_origin(n * s);
    fhmm_stage_group(cur.data(), origin.data(), lt.data(), n, s, nxt.data(),
                     nxt_origin.data());
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t lo = 0; lo < s; ++lo) {
        EXPECT_EQ(nxt_origin[b * s + lo], origin[lo])  // a = 0 wins
            << "b=" << b << " lo=" << lo << " s=" << s;
      }
    }
  }
}

TEST(Simd, KnnTileDistMatchesScalarAndRowMajorChain) {
  Rng rng(104);
  for (const std::size_t d : {1u, 3u, 4u, 8u, 13u}) {
    for (const std::size_t rows : {1u, 4u, 5u, 16u, 100u}) {
      const auto q = random_values(rng, d, -2.0, 2.0);
      const auto flat = random_values(rng, rows * d, -2.0, 2.0);  // row-major
      std::vector<double> cols(d * rows);
      for (std::size_t c = 0; c < d; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
          cols[c * rows + r] = flat[r * d + c];
        }
      }
      double q2 = 0.0;
      for (std::size_t c = 0; c < d; ++c) q2 += q[c] * q[c];
      std::vector<double> norm2(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          s += flat[r * d + c] * flat[r * d + c];
        }
        norm2[r] = s;
      }
      std::vector<double> got(rows), want(rows), chain(rows);
      knn_tile_dist2(q.data(), d, cols.data(), rows, q2, norm2.data(),
                     got.data());
      scalar::knn_tile_dist2(q.data(), d, cols.data(), rows, q2,
                             norm2.data(), want.data());
      // The contract anchor: the row-major fold_tile addition chain.
      for (std::size_t r = 0; r < rows; ++r) {
        double dot = 0.0;
        for (std::size_t c = 0; c < d; ++c) dot += q[c] * flat[r * d + c];
        chain[r] = q2 + norm2[r] - 2.0 * dot;
      }
      expect_bitwise_equal(got, want, "knn_tile_dist2 vs scalar");
      expect_bitwise_equal(want, chain, "knn_tile_dist2 vs row-major chain");
    }
  }
}

TEST(Simd, MaskLeqMatchesScalarSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {0.0, -0.0, 1.0,  1.0 + 1e-16, nan,
                                  inf, -inf, 0.999, 1.0000001,  1.0};
  for (const double threshold : {1.0, 0.0, -0.0, nan}) {
    std::vector<unsigned char> got(xs.size()), want(xs.size());
    mask_leq(xs.data(), xs.size(), threshold, got.data());
    scalar::mask_leq(xs.data(), xs.size(), threshold, want.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const unsigned char expected = xs[i] <= threshold ? 1 : 0;
      EXPECT_EQ(want[i], expected) << "scalar mask, element " << i;
      EXPECT_EQ(got[i], expected) << "dispatched mask, element " << i;
    }
  }
}

TEST(Simd, MaskAdjacentNeqMatchesScalarSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {1.0, 1.0, 2.0, 2.0, 2.0, -0.0, 0.0,
                                  nan, nan, 3.0, 3.0, 4.0};
  std::vector<unsigned char> got(xs.size() - 1), want(xs.size() - 1);
  mask_adjacent_neq(xs.data(), xs.size(), got.data());
  scalar::mask_adjacent_neq(xs.data(), xs.size(), want.data());
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const unsigned char expected = !(xs[i] == xs[i + 1]) ? 1 : 0;
    EXPECT_EQ(want[i], expected) << "scalar mask, boundary " << i;
    EXPECT_EQ(got[i], expected) << "dispatched mask, boundary " << i;
  }
  // NaN != NaN is true; -0.0 == 0.0 is true.
  EXPECT_EQ(got[7], 1);  // nan vs nan
  EXPECT_EQ(got[5], 0);  // -0.0 vs 0.0
}

}  // namespace
}  // namespace pmiot::simd
