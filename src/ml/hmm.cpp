#include "ml/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "ml/kmeans.h"

namespace pmiot::ml {
namespace {

constexpr double kMinStddev = 1e-3;
constexpr double kMinProb = 1e-10;

double gaussian_pdf(double x, double mean, double stddev) {
  const double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) / (stddev * std::sqrt(2.0 * M_PI));
}

}  // namespace

void HmmParams::validate() const {
  const std::size_t n = initial.size();
  PMIOT_CHECK(n >= 1, "HMM needs at least one state");
  PMIOT_CHECK(transition.size() == n, "transition row count mismatch");
  PMIOT_CHECK(mean.size() == n && stddev.size() == n,
              "emission parameter count mismatch");
  double init_sum = 0.0;
  for (double p : initial) {
    PMIOT_CHECK(p >= 0.0, "negative initial probability");
    init_sum += p;
  }
  PMIOT_CHECK(std::fabs(init_sum - 1.0) < 1e-6, "initial must sum to 1");
  for (const auto& row : transition) {
    PMIOT_CHECK(row.size() == n, "transition column count mismatch");
    double s = 0.0;
    for (double p : row) {
      PMIOT_CHECK(p >= 0.0, "negative transition probability");
      s += p;
    }
    PMIOT_CHECK(std::fabs(s - 1.0) < 1e-6, "transition rows must sum to 1");
  }
  for (double s : stddev) PMIOT_CHECK(s > 0.0, "stddev must be positive");
}

GaussianHmm::GaussianHmm(HmmParams params) : params_(std::move(params)) {
  params_.validate();
}

GaussianHmm GaussianHmm::init_from_data(int num_states,
                                        std::span<const double> observations,
                                        Rng& rng) {
  PMIOT_CHECK(num_states >= 1, "need at least one state");
  PMIOT_CHECK(!observations.empty(), "need observations");
  const auto n = static_cast<std::size_t>(num_states);

  auto clusters = kmeans1d(observations, num_states, rng);
  HmmParams p;
  p.initial.assign(n, 1.0 / static_cast<double>(n));
  p.transition.assign(n, std::vector<double>(n, 0.0));
  p.mean.assign(n, 0.0);
  p.stddev.assign(n, kMinStddev);

  // Sticky transitions: staying is much more likely than switching, which
  // matches occupancy and appliance dynamics at minute resolution.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      p.transition[i][j] = (i == j) ? 0.9 : 0.1 / std::max<double>(1.0, static_cast<double>(n - 1));
    }
    // Renormalize exactly.
    double s = 0.0;
    for (double v : p.transition[i]) s += v;
    for (double& v : p.transition[i]) v /= s;
  }

  // Emission means/stddevs from the clusters (sorted by mean so state ids
  // are deterministic: state 0 = lowest power).
  std::vector<double> centers(n);
  for (std::size_t c = 0; c < clusters.centroids.size(); ++c) {
    centers[c] = clusters.centroids[c][0];
  }
  for (std::size_t c = clusters.centroids.size(); c < n; ++c) {
    centers[c] = centers.empty() ? 0.0 : centers[0];
  }
  std::sort(centers.begin(), centers.end());
  for (std::size_t c = 0; c < n; ++c) p.mean[c] = centers[c];

  // Per-state stddev from assigned points (re-assign to sorted centers).
  std::vector<double> sums(n, 0.0), sq(n, 0.0);
  std::vector<std::size_t> counts(n, 0);
  for (double x : observations) {
    std::size_t best = 0;
    double bd = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < n; ++c) {
      const double d = std::fabs(x - p.mean[c]);
      if (d < bd) {
        bd = d;
        best = c;
      }
    }
    ++counts[best];
    sums[best] += x;
    sq[best] += x * x;
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (counts[c] >= 2) {
      const double m = sums[c] / static_cast<double>(counts[c]);
      const double var = sq[c] / static_cast<double>(counts[c]) - m * m;
      p.stddev[c] = std::max(std::sqrt(std::max(var, 0.0)), kMinStddev);
    } else {
      p.stddev[c] = std::max(0.1 * (std::fabs(p.mean[c]) + 1.0), kMinStddev);
    }
  }
  return GaussianHmm(std::move(p));
}

double GaussianHmm::emission(std::size_t state, double x) const {
  return std::max(gaussian_pdf(x, params_.mean[state], params_.stddev[state]),
                  kMinProb);
}

double GaussianHmm::forward(std::span<const double> observations,
                            std::vector<std::vector<double>>& alpha,
                            std::vector<double>& scale) const {
  const std::size_t n = params_.num_states();
  const std::size_t t_max = observations.size();
  alpha.assign(t_max, std::vector<double>(n, 0.0));
  scale.assign(t_max, 0.0);

  for (std::size_t s = 0; s < n; ++s) {
    alpha[0][s] = params_.initial[s] * emission(s, observations[0]);
    scale[0] += alpha[0][s];
  }
  PMIOT_ASSERT(scale[0] > 0.0, "zero forward mass at t=0");
  for (auto& a : alpha[0]) a /= scale[0];

  for (std::size_t t = 1; t < t_max; ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += alpha[t - 1][r] * params_.transition[r][s];
      }
      alpha[t][s] = acc * emission(s, observations[t]);
      scale[t] += alpha[t][s];
    }
    PMIOT_ASSERT(scale[t] > 0.0, "zero forward mass");
    for (auto& a : alpha[t]) a /= scale[t];
  }

  double ll = 0.0;
  for (double c : scale) ll += std::log(c);
  return ll;
}

void GaussianHmm::backward(std::span<const double> observations,
                           std::span<const double> scale,
                           std::vector<std::vector<double>>& beta) const {
  const std::size_t n = params_.num_states();
  const std::size_t t_max = observations.size();
  // Row-wise assign instead of assign(t_max, prototype): the prototype
  // temporary's destructor trips GCC 12's -Wfree-nonheap-object false
  // positive once inlined, and row-wise reuse also keeps existing row
  // capacity across Baum-Welch iterations.
  beta.resize(t_max);
  for (auto& row : beta) row.assign(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) beta[t_max - 1][s] = 1.0;
  for (std::size_t t = t_max - 1; t-- > 0;) {
    for (std::size_t s = 0; s < n; ++s) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += params_.transition[s][r] * emission(r, observations[t + 1]) *
               beta[t + 1][r];
      }
      beta[t][s] = acc / scale[t + 1];
    }
  }
}

double GaussianHmm::log_likelihood(
    std::span<const double> observations) const {
  PMIOT_CHECK(!observations.empty(), "need observations");
  std::vector<std::vector<double>> alpha;
  std::vector<double> scale;
  return forward(observations, alpha, scale);
}

std::vector<int> GaussianHmm::viterbi(
    std::span<const double> observations) const {
  PMIOT_CHECK(!observations.empty(), "need observations");
  const std::size_t n = params_.num_states();
  const std::size_t t_max = observations.size();

  // Log-emissions computed directly from precomputed per-state constants.
  // The seed scored states via log(max(gaussian_pdf(...), kMinProb)) — an
  // exp/log round-trip per (state, t) that also silently flattened every
  // observation further than ~6 sigma from a state's mean to the same
  // floored score; the direct form keeps those tails ordered.
  const double half_log_2pi = 0.5 * std::log(2.0 * M_PI);
  std::vector<double> log_norm(n), inv_2var(n);
  for (std::size_t s = 0; s < n; ++s) {
    log_norm[s] = -std::log(params_.stddev[s]) - half_log_2pi;
    inv_2var[s] = 0.5 / (params_.stddev[s] * params_.stddev[s]);
  }
  // Batch the whole emission table up front: log_em[s * t_max + t] is
  // log_norm[s] - d*d*inv_2var[s] with d = obs[t] - mean[s], so the t-loop
  // below becomes pure table reads.
  std::vector<double> log_em(n * t_max);
  for (std::size_t s = 0; s < n; ++s) {
    double* row = log_em.data() + s * t_max;
    for (std::size_t t = 0; t < t_max; ++t) {
      const double d = observations[t] - params_.mean[s];
      row[t] = log_norm[s] - d * d * inv_2var[s];
    }
  }

  std::vector<double> log_trans(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      log_trans[i * n + j] =
          std::log(std::max(params_.transition[i][j], kMinProb));
    }
  }

  std::vector<double> delta(n), next_delta(n);
  std::vector<int> psi(t_max * n, 0);

  for (std::size_t s = 0; s < n; ++s) {
    delta[s] = std::log(std::max(params_.initial[s], kMinProb)) +
               log_em[s * t_max];
  }
  for (std::size_t t = 1; t < t_max; ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      double best = -std::numeric_limits<double>::infinity();
      int best_prev = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const double cand = delta[r] + log_trans[r * n + s];
        if (cand > best) {
          best = cand;
          best_prev = static_cast<int>(r);
        }
      }
      next_delta[s] = best + log_em[s * t_max + t];
      psi[t * n + s] = best_prev;
    }
    delta.swap(next_delta);
  }

  std::vector<int> path(t_max);
  path[t_max - 1] = static_cast<int>(
      std::max_element(delta.begin(), delta.end()) - delta.begin());
  for (std::size_t t = t_max - 1; t-- > 0;) {
    path[t] = psi[(t + 1) * n + static_cast<std::size_t>(path[t + 1])];
  }
  return path;
}

std::vector<std::vector<double>> GaussianHmm::posterior(
    std::span<const double> observations) const {
  PMIOT_CHECK(!observations.empty(), "need observations");
  const std::size_t n = params_.num_states();
  std::vector<std::vector<double>> alpha, beta;
  std::vector<double> scale;
  forward(observations, alpha, scale);
  backward(observations, scale, beta);

  std::vector<std::vector<double>> gamma(observations.size(),
                                         std::vector<double>(n, 0.0));
  for (std::size_t t = 0; t < observations.size(); ++t) {
    double denom = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      gamma[t][s] = alpha[t][s] * beta[t][s];
      denom += gamma[t][s];
    }
    PMIOT_ASSERT(denom > 0.0, "zero posterior mass");
    for (auto& g : gamma[t]) g /= denom;
  }
  return gamma;
}

HmmFitResult GaussianHmm::fit(std::span<const double> observations,
                              int max_iterations, double tolerance) {
  PMIOT_CHECK(observations.size() >= 2, "need at least two observations");
  PMIOT_CHECK(max_iterations >= 1, "max_iterations must be at least 1");
  const std::size_t n = params_.num_states();
  const std::size_t t_max = observations.size();

  HmmFitResult result;
  double prev_ll = -std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < max_iterations; ++iter) {
    std::vector<std::vector<double>> alpha, beta;
    std::vector<double> scale;
    const double ll = forward(observations, alpha, scale);
    backward(observations, scale, beta);
    result.iterations = iter + 1;
    result.log_likelihood = ll;

    if (std::fabs(ll - prev_ll) < tolerance) {
      result.converged = true;
      break;
    }
    prev_ll = ll;

    // gamma[t][s] and xi accumulators.
    std::vector<std::vector<double>> gamma(t_max, std::vector<double>(n));
    for (std::size_t t = 0; t < t_max; ++t) {
      double denom = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        gamma[t][s] = alpha[t][s] * beta[t][s];
        denom += gamma[t][s];
      }
      for (auto& g : gamma[t]) g /= denom;
    }

    std::vector<std::vector<double>> xi_sum(n, std::vector<double>(n, 0.0));
    for (std::size_t t = 0; t + 1 < t_max; ++t) {
      double denom = 0.0;
      std::vector<std::vector<double>> xi(n, std::vector<double>(n));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          xi[i][j] = alpha[t][i] * params_.transition[i][j] *
                     emission(j, observations[t + 1]) * beta[t + 1][j];
          denom += xi[i][j];
        }
      }
      if (denom <= 0.0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) xi_sum[i][j] += xi[i][j] / denom;
      }
    }

    // M-step.
    for (std::size_t s = 0; s < n; ++s) {
      params_.initial[s] = std::max(gamma[0][s], kMinProb);
    }
    double init_norm = 0.0;
    for (double v : params_.initial) init_norm += v;
    for (auto& v : params_.initial) v /= init_norm;

    for (std::size_t i = 0; i < n; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) row_sum += xi_sum[i][j];
      for (std::size_t j = 0; j < n; ++j) {
        params_.transition[i][j] =
            row_sum > 0.0 ? std::max(xi_sum[i][j] / row_sum, kMinProb)
                          : 1.0 / static_cast<double>(n);
      }
      double norm = 0.0;
      for (double v : params_.transition[i]) norm += v;
      for (auto& v : params_.transition[i]) v /= norm;
    }

    for (std::size_t s = 0; s < n; ++s) {
      double g_sum = 0.0, x_sum = 0.0;
      for (std::size_t t = 0; t < t_max; ++t) {
        g_sum += gamma[t][s];
        x_sum += gamma[t][s] * observations[t];
      }
      if (g_sum > 0.0) {
        params_.mean[s] = x_sum / g_sum;
        double v_sum = 0.0;
        for (std::size_t t = 0; t < t_max; ++t) {
          const double d = observations[t] - params_.mean[s];
          v_sum += gamma[t][s] * d * d;
        }
        params_.stddev[s] = std::max(std::sqrt(v_sum / g_sum), kMinStddev);
      }
    }
  }
  return result;
}

}  // namespace pmiot::ml
