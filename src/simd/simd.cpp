#include "simd/simd.h"

// Compiled-in gate for the explicit AVX2 kernels. The vector functions are
// annotated with __attribute__((target("avx2"))) — only they are compiled
// for AVX2, so the rest of the binary (including every scalar reference
// below) gets identical codegen whether the option is on or off, and a
// non-AVX2 host never executes a vector instruction (runtime dispatch in
// active()). "fma" is deliberately NOT in the target set: without the FMA
// ISA the compiler cannot contract mul+add intrinsic pairs, which is what
// keeps the vector arithmetic bit-identical to the scalar reference.
#if defined(PMIOT_SIMD) && defined(__x86_64__) && defined(__GNUC__)
#define PMIOT_SIMD_AVX2 1
#endif

#ifdef PMIOT_SIMD_AVX2
#include <immintrin.h>
#endif

namespace pmiot::simd {

namespace scalar {

void log_emission_scan(const double* xs, std::size_t n, double mean,
                       double log_norm, double inv_2var, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d = xs[i] - mean;
    out[i] = log_norm - d * d * inv_2var;
  }
}

void add_log_emission(const double* base, double obs, const double* centers,
                      std::size_t n, double log_norm, double inv_2var,
                      double* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const double d = obs - centers[j];
    out[j] = base[j] + (log_norm - d * d * inv_2var);
  }
}

void fhmm_stage_group(const double* cur, const std::int32_t* cur_origin,
                      const double* lt, std::size_t n, std::size_t s,
                      double* nxt, std::int32_t* nxt_origin) {
  // Reference loop nest: identical comparisons and comparison order to the
  // pre-SIMD decode_factored inner loops (strict > over ascending a, so
  // the lowest predecessor digit wins exact ties).
  for (std::size_t lo = 0; lo < s; ++lo) {
    for (std::size_t b = 0; b < n; ++b) {
      double best = cur[lo] + lt[b];  // a == 0
      std::size_t best_a = 0;
      for (std::size_t a = 1; a < n; ++a) {
        const double cand = cur[a * s + lo] + lt[a * n + b];
        if (cand > best) {
          best = cand;
          best_a = a;
        }
      }
      nxt[b * s + lo] = best;
      nxt_origin[b * s + lo] = cur_origin[best_a * s + lo];
    }
  }
}

void knn_tile_dist2(const double* q, std::size_t d, const double* cols,
                    std::size_t rows, double q2, const double* norm2,
                    double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    // Ascending feature order: the exact addition chain of the row-major
    // reference (`fold_tile`), so dist2 values are bitwise equal.
    for (std::size_t c = 0; c < d; ++c) dot += q[c] * cols[c * rows + r];
    out[r] = q2 + norm2[r] - 2.0 * dot;
  }
}

void mask_leq(const double* xs, std::size_t n, double threshold,
              unsigned char* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = xs[i] <= threshold ? 1 : 0;
  }
}

void mask_adjacent_neq(const double* xs, std::size_t n, unsigned char* out) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out[i] = xs[i] != xs[i + 1] ? 1 : 0;
  }
}

}  // namespace scalar

#ifdef PMIOT_SIMD_AVX2
namespace avx2 {

__attribute__((target("avx2"))) void log_emission_scan(
    const double* xs, std::size_t n, double mean, double log_norm,
    double inv_2var, double* out) {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vnorm = _mm256_set1_pd(log_norm);
  const __m256d vinv = _mm256_set1_pd(inv_2var);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    const __m256d d = _mm256_sub_pd(x, vmean);
    const __m256d dd = _mm256_mul_pd(d, d);
    _mm256_storeu_pd(out + i, _mm256_sub_pd(vnorm, _mm256_mul_pd(dd, vinv)));
  }
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
    out[i] = log_norm - d * d * inv_2var;
  }
}

__attribute__((target("avx2"))) void add_log_emission(
    const double* base, double obs, const double* centers, std::size_t n,
    double log_norm, double inv_2var, double* out) {
  const __m256d vobs = _mm256_set1_pd(obs);
  const __m256d vnorm = _mm256_set1_pd(log_norm);
  const __m256d vinv = _mm256_set1_pd(inv_2var);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d c = _mm256_loadu_pd(centers + j);
    const __m256d d = _mm256_sub_pd(vobs, c);
    const __m256d dd = _mm256_mul_pd(d, d);
    const __m256d em = _mm256_sub_pd(vnorm, _mm256_mul_pd(dd, vinv));
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(base + j), em));
  }
  for (; j < n; ++j) {
    const double d = obs - centers[j];
    out[j] = base[j] + (log_norm - d * d * inv_2var);
  }
}

__attribute__((target("avx2"))) void fhmm_stage_group(
    const double* cur, const std::int32_t* cur_origin, const double* lt,
    std::size_t n, std::size_t s, double* nxt, std::int32_t* nxt_origin) {
  // Loop interchange of the scalar reference: (b, a) in registers, lanes
  // over the contiguous span offset lo. Each lane runs the reference's
  // exact compare chain (strict >, ascending a), so outputs — including
  // tie resolution — are bitwise identical. The argmax rides along as a
  // small-integer double; origins are gathered scalar per lane afterwards.
  const std::size_t s4 = s - s % 4;
  for (std::size_t b = 0; b < n; ++b) {
    double* ov = nxt + b * s;
    std::int32_t* oo = nxt_origin + b * s;
    for (std::size_t lo = 0; lo < s4; lo += 4) {
      __m256d best =
          _mm256_add_pd(_mm256_loadu_pd(cur + lo), _mm256_set1_pd(lt[b]));
      __m256d best_a = _mm256_setzero_pd();
      for (std::size_t a = 1; a < n; ++a) {
        const __m256d cand =
            _mm256_add_pd(_mm256_loadu_pd(cur + a * s + lo),
                          _mm256_set1_pd(lt[a * n + b]));
        const __m256d gt = _mm256_cmp_pd(cand, best, _CMP_GT_OQ);
        best = _mm256_blendv_pd(best, cand, gt);
        best_a = _mm256_blendv_pd(
            best_a, _mm256_set1_pd(static_cast<double>(a)), gt);
      }
      _mm256_storeu_pd(ov + lo, best);
      alignas(32) double a_lane[4];
      _mm256_store_pd(a_lane, best_a);
      for (std::size_t j = 0; j < 4; ++j) {
        const auto a = static_cast<std::size_t>(a_lane[j]);
        oo[lo + j] = cur_origin[a * s + lo + j];
      }
    }
    for (std::size_t lo = s4; lo < s; ++lo) {
      double best = cur[lo] + lt[b];
      std::size_t best_a = 0;
      for (std::size_t a = 1; a < n; ++a) {
        const double cand = cur[a * s + lo] + lt[a * n + b];
        if (cand > best) {
          best = cand;
          best_a = a;
        }
      }
      ov[lo] = best;
      oo[lo] = cur_origin[best_a * s + lo];
    }
  }
}

__attribute__((target("avx2"))) void knn_tile_dist2(
    const double* q, std::size_t d, const double* cols, std::size_t rows,
    double q2, const double* norm2, double* out) {
  const __m256d vq2 = _mm256_set1_pd(q2);
  const __m256d vm2 = _mm256_set1_pd(-2.0);
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m256d col = _mm256_loadu_pd(cols + c * rows + r);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(q[c]), col));
    }
    const __m256d n2 = _mm256_loadu_pd(norm2 + r);
    _mm256_storeu_pd(
        out + r,
        _mm256_add_pd(_mm256_add_pd(vq2, n2), _mm256_mul_pd(vm2, acc)));
  }
  for (; r < rows; ++r) {
    double dot = 0.0;
    for (std::size_t c = 0; c < d; ++c) dot += q[c] * cols[c * rows + r];
    out[r] = q2 + norm2[r] - 2.0 * dot;
  }
}

__attribute__((target("avx2"))) void mask_leq(const double* xs, std::size_t n,
                                              double threshold,
                                              unsigned char* out) {
  const __m256d vt = _mm256_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d le =
        _mm256_cmp_pd(_mm256_loadu_pd(xs + i), vt, _CMP_LE_OQ);
    const int bits = _mm256_movemask_pd(le);
    out[i] = static_cast<unsigned char>(bits & 1);
    out[i + 1] = static_cast<unsigned char>((bits >> 1) & 1);
    out[i + 2] = static_cast<unsigned char>((bits >> 2) & 1);
    out[i + 3] = static_cast<unsigned char>((bits >> 3) & 1);
  }
  for (; i < n; ++i) out[i] = xs[i] <= threshold ? 1 : 0;
}

__attribute__((target("avx2"))) void mask_adjacent_neq(const double* xs,
                                                       std::size_t n,
                                                       unsigned char* out) {
  if (n < 2) return;
  const std::size_t m = n - 1;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d a = _mm256_loadu_pd(xs + i);
    const __m256d b = _mm256_loadu_pd(xs + i + 1);
    // NEQ_UQ: true for NaN operands, matching scalar !(a == b).
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_NEQ_UQ));
    out[i] = static_cast<unsigned char>(bits & 1);
    out[i + 1] = static_cast<unsigned char>((bits >> 1) & 1);
    out[i + 2] = static_cast<unsigned char>((bits >> 2) & 1);
    out[i + 3] = static_cast<unsigned char>((bits >> 3) & 1);
  }
  for (; i < m; ++i) out[i] = xs[i] != xs[i + 1] ? 1 : 0;
}

}  // namespace avx2
#endif  // PMIOT_SIMD_AVX2

bool active() noexcept {
#ifdef PMIOT_SIMD_AVX2
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

const char* backend() noexcept { return active() ? "avx2" : "scalar"; }

void log_emission_scan(const double* xs, std::size_t n, double mean,
                       double log_norm, double inv_2var, double* out) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::log_emission_scan(xs, n, mean, log_norm, inv_2var, out);
    return;
  }
#endif
  scalar::log_emission_scan(xs, n, mean, log_norm, inv_2var, out);
}

void add_log_emission(const double* base, double obs, const double* centers,
                      std::size_t n, double log_norm, double inv_2var,
                      double* out) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::add_log_emission(base, obs, centers, n, log_norm, inv_2var, out);
    return;
  }
#endif
  scalar::add_log_emission(base, obs, centers, n, log_norm, inv_2var, out);
}

void fhmm_stage_group(const double* cur, const std::int32_t* cur_origin,
                      const double* lt, std::size_t n, std::size_t s,
                      double* nxt, std::int32_t* nxt_origin) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::fhmm_stage_group(cur, cur_origin, lt, n, s, nxt, nxt_origin);
    return;
  }
#endif
  scalar::fhmm_stage_group(cur, cur_origin, lt, n, s, nxt, nxt_origin);
}

void knn_tile_dist2(const double* q, std::size_t d, const double* cols,
                    std::size_t rows, double q2, const double* norm2,
                    double* out) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::knn_tile_dist2(q, d, cols, rows, q2, norm2, out);
    return;
  }
#endif
  scalar::knn_tile_dist2(q, d, cols, rows, q2, norm2, out);
}

void mask_leq(const double* xs, std::size_t n, double threshold,
              unsigned char* out) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::mask_leq(xs, n, threshold, out);
    return;
  }
#endif
  scalar::mask_leq(xs, n, threshold, out);
}

void mask_adjacent_neq(const double* xs, std::size_t n, unsigned char* out) {
#ifdef PMIOT_SIMD_AVX2
  if (active()) {
    avx2::mask_adjacent_neq(xs, n, out);
    return;
  }
#endif
  scalar::mask_adjacent_neq(xs, n, out);
}

}  // namespace pmiot::simd
