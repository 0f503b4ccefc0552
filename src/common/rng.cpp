#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace pmiot {
namespace {

// SplitMix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is a fixed point for xoshiro; splitmix cannot produce four
  // zeros from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % range);
  std::uint64_t draw;
  do {
    draw = next();
  } while (draw > limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double lambda) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::laplace(double b) noexcept {
  const double u = uniform() - 0.5;
  return -b * std::copysign(std::log(1.0 - 2.0 * std::fabs(u)), u);
}

int Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda > 30.0) {
    // Normal approximation with continuity correction.
    const double draw = normal(lambda, std::sqrt(lambda));
    return draw < 0.0 ? 0 : static_cast<int>(draw + 0.5);
  }
  const double limit = std::exp(-lambda);
  double prod = uniform();
  int count = 0;
  while (prod > limit) {
    prod *= uniform();
    ++count;
  }
  return count;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  PMIOT_CHECK(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    PMIOT_CHECK(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  PMIOT_CHECK(total > 0.0, "categorical weights must not all be zero");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() noexcept { return Rng(next()); }

}  // namespace pmiot
