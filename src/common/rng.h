// Deterministic random-number generation.
//
// Every stochastic component in pmiot (appliance simulators, occupancy
// schedules, weather processes, ML initialization, noise-injection defenses)
// draws from an explicitly seeded `Rng`, so every experiment in the paper
// reproduction is bit-reproducible across runs. The engine is xoshiro256**,
// which is small, fast, and has no observable linear artifacts for our use.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace pmiot {

/// Seeded pseudo-random generator with the distribution helpers the
/// simulators need. Copyable; copies evolve independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine via SplitMix64 expansion of `seed`, so nearby seeds
  /// still produce uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Next raw 64-bit draw (xoshiro256**). Inline, with the two uniform
  /// draws below: the simulators call them once or more per packet.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached pair).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponential with rate lambda > 0 (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Laplace(0, b) draw — the differential-privacy noise primitive.
  double laplace(double b) noexcept;

  /// Poisson draw with mean `lambda` (Knuth for small, normal approx large).
  int poisson(double lambda) noexcept;

  /// Index in [0, weights.size()) drawn proportionally to `weights`
  /// (non-negative, not all zero).
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-entity generators).
  Rng fork() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace pmiot
