// Explicit SIMD kernels for the hot inner loops (ROADMAP item 4), behind
// the PMIOT_SIMD build option with the scalar path as the permanent
// reference.
//
// Contract (documented in DESIGN.md, enforced by tests/simd_test.cpp and
// the self-checking benches):
//
//  * Every kernel here is **bit-identical** to its `scalar::` reference at
//    any vector width. The vector paths only regroup independent
//    per-element work — each output element is produced by exactly the
//    same sequence of floating-point operations as the scalar loop (no
//    FMA contraction, no reassociated reductions, compare semantics
//    matched including NaN). `fig2_nilm_error`, `sec4_traffic_fingerprint`
//    and `fleet_gateway --self-check` therefore print the same bytes with
//    PMIOT_SIMD ON or OFF.
//
// Dispatch: the public functions branch once per call on `active()`
// (compiled-in support && runtime AVX2 cpuid), so one binary carries both
// paths and the scalar build emits no AVX2 instructions at all. On
// non-x86-64 targets the option degrades to the scalar path silently.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pmiot::simd {

/// True when the AVX2 kernels are compiled in (PMIOT_SIMD build option on
/// an x86-64 toolchain) AND the executing CPU reports AVX2. Evaluated once.
bool active() noexcept;

/// "avx2" when `active()`, otherwise "scalar" — for bench/report labels.
const char* backend() noexcept;

/// Scalar reference implementations. Always compiled, never vectorized by
/// hand; the dispatching functions below fall back to these, and the
/// self-check benches time them against the SIMD path in one binary.
namespace scalar {

/// out[i] = log_norm - (xs[i] - mean)^2 * inv_2var — one Gaussian state's
/// log-emission over an observation batch (the HMM Viterbi shape).
void log_emission_scan(const double* xs, std::size_t n, double mean,
                       double log_norm, double inv_2var, double* out);

/// out[j] = base[j] + log_norm - (obs - centers[j])^2 * inv_2var — one
/// observation scored against every joint state and accumulated (the FHMM
/// delta-update shape).
void add_log_emission(const double* base, double obs, const double* centers,
                      std::size_t n, double log_norm, double inv_2var,
                      double* out);

/// One FHMM chain-elimination group: for every to-state b in [0, n) and
/// span offset lo in [0, s),
///   nxt[b*s + lo]        = max over a of cur[a*s + lo] + lt[a*n + b]
///   nxt_origin[b*s + lo] = cur_origin[argmax*s + lo]
/// with exact ties won by the smallest a (strict > over ascending a).
/// Pointers are the group's base offset; `lt` is the chain's n x n
/// log-transition table.
void fhmm_stage_group(const double* cur, const std::int32_t* cur_origin,
                      const double* lt, std::size_t n, std::size_t s,
                      double* nxt, std::int32_t* nxt_origin);

/// kNN tile distances over a transposed training tile. `cols` is
/// column-major [c*rows + r]; out[r] = q2 + norm2[r] - 2*dot(q, row r),
/// the dot accumulated in ascending feature order (the row-major loop's
/// exact addition chain, so distances match `fold_tile` bitwise).
void knn_tile_dist2(const double* q, std::size_t d, const double* cols,
                    std::size_t rows, double q2, const double* norm2,
                    double* out);

/// out[i] = xs[i] <= threshold ? 1 : 0 (NaN compares false, as in scalar).
void mask_leq(const double* xs, std::size_t n, double threshold,
              unsigned char* out);

/// out[i] = xs[i] != xs[i+1] ? 1 : 0 for i in [0, n-1) — the decision
/// tree's splittable-boundary mask (NaN != NaN is true, matching !(a==b)).
void mask_adjacent_neq(const double* xs, std::size_t n, unsigned char* out);

}  // namespace scalar

// Dispatching entry points: AVX2 when `active()`, scalar otherwise.
// Results are bit-identical either way (per-element op-order equality).

void log_emission_scan(const double* xs, std::size_t n, double mean,
                       double log_norm, double inv_2var, double* out);
void add_log_emission(const double* base, double obs, const double* centers,
                      std::size_t n, double log_norm, double inv_2var,
                      double* out);
void fhmm_stage_group(const double* cur, const std::int32_t* cur_origin,
                      const double* lt, std::size_t n, std::size_t s,
                      double* nxt, std::int32_t* nxt_origin);
void knn_tile_dist2(const double* q, std::size_t d, const double* cols,
                    std::size_t rows, double q2, const double* norm2,
                    double* out);
void mask_leq(const double* xs, std::size_t n, double threshold,
              unsigned char* out);
void mask_adjacent_neq(const double* xs, std::size_t n, unsigned char* out);

}  // namespace pmiot::simd
