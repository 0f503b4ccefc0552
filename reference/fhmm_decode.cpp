#include "reference/fhmm_decode.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.h"

namespace pmiot::reference {
namespace {

constexpr double kMinProb = 1e-9;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Joint log-transition tables are only materialized while they stay small
/// (2048^2 doubles = 32 MiB); beyond that the per-chain tables are summed
/// on the fly.
constexpr std::size_t kPrecomputeMax = 2048;

void prune_to_beam(std::vector<double>& delta, std::size_t beam,
                   std::vector<double>& scratch) {
  if (beam == 0 || beam >= delta.size()) return;
  scratch = delta;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<long>(beam) - 1,
                   scratch.end(), std::greater<double>());
  const double cutoff = scratch[beam - 1];
  std::size_t above = 0;
  for (double v : delta) above += v > cutoff ? 1 : 0;
  std::size_t keep_at_cutoff = beam - above;
  for (auto& v : delta) {
    if (v > cutoff) continue;
    if (v == cutoff && keep_at_cutoff > 0) {
      --keep_at_cutoff;
      continue;
    }
    v = kNegInf;
  }
}

}  // namespace

ml::FhmmDecoding fhmm_decode_naive(const ml::FactorialHmm& model,
                                   std::span<const double> aggregate,
                                   std::size_t beam_width) {
  PMIOT_CHECK(!aggregate.empty(), "need observations");
  const std::size_t k = model.joint_state_count();
  const std::size_t t_max = aggregate.size();
  const std::size_t num_chains = model.num_appliances();

  // Joint id -> per-chain states (chain C-1 is the least significant
  // digit), and the joint power summed in chain order.
  std::vector<std::int32_t> unpacked(k * num_chains);
  std::vector<double> joint_power(k);
  {
    std::vector<std::int32_t> digits(num_chains, 0);
    for (std::size_t j = 0; j < k; ++j) {
      std::copy(digits.begin(), digits.end(), unpacked.begin() + j * num_chains);
      double p = 0.0;
      for (std::size_t c = 0; c < num_chains; ++c) {
        p += model.chain(c).state_power[static_cast<std::size_t>(digits[c])];
      }
      joint_power[j] = p;
      for (std::size_t c = num_chains; c-- > 0;) {
        if (++digits[c] <
            static_cast<std::int32_t>(model.chain(c).num_states())) {
          break;
        }
        digits[c] = 0;
      }
    }
  }

  // Per-chain log transitions, chain c at lt_offset[c], [from * n_c + to].
  std::vector<double> chain_lt;
  std::vector<std::size_t> lt_offset(num_chains);
  for (std::size_t c = 0; c < num_chains; ++c) {
    lt_offset[c] = chain_lt.size();
    const auto& chain = model.chain(c);
    for (std::size_t a = 0; a < chain.num_states(); ++a) {
      for (std::size_t b = 0; b < chain.num_states(); ++b) {
        chain_lt.push_back(std::log(std::max(chain.transition[a][b], kMinProb)));
      }
    }
  }
  const auto joint_log_transition = [&](std::size_t a, std::size_t b) {
    const std::int32_t* ua = unpacked.data() + a * num_chains;
    const std::int32_t* ub = unpacked.data() + b * num_chains;
    double lt = 0.0;
    for (std::size_t c = 0; c < num_chains; ++c) {
      const std::size_t n = model.chain(c).num_states();
      lt += chain_lt[lt_offset[c] + static_cast<std::size_t>(ua[c]) * n +
                     static_cast<std::size_t>(ub[c])];
    }
    return lt;
  };

  std::vector<double> log_init(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::int32_t* states = unpacked.data() + j * num_chains;
    for (std::size_t c = 0; c < num_chains; ++c) {
      log_init[j] += std::log(std::max(
          model.chain(c).initial[static_cast<std::size_t>(states[c])],
          kMinProb));
    }
  }

  // Transposed joint table: log_trans_t[b * k + a] = sum_c log T_c(a_c, b_c).
  const bool precompute = k <= kPrecomputeMax;
  std::vector<double> log_trans_t;
  if (precompute) {
    log_trans_t.resize(k * k);
    for (std::size_t b = 0; b < k; ++b) {
      for (std::size_t a = 0; a < k; ++a) {
        log_trans_t[b * k + a] = joint_log_transition(a, b);
      }
    }
  }

  const double noise = model.noise_stddev();
  const double inv_2var = 0.5 / (noise * noise);
  const double log_norm = -std::log(noise * std::sqrt(2.0 * M_PI));
  const auto emission_log = [&](std::size_t j, double obs) {
    const double d = obs - joint_power[j];
    return log_norm - d * d * inv_2var;
  };

  std::vector<double> delta(k);
  std::vector<double> next_delta(k);
  std::vector<double> beam_scratch;
  std::vector<std::int32_t> psi(t_max * k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    delta[j] = log_init[j] + emission_log(j, aggregate[0]);
  }
  for (std::size_t t = 1; t < t_max; ++t) {
    prune_to_beam(delta, beam_width, beam_scratch);
    for (std::size_t b = 0; b < k; ++b) {
      double best = kNegInf;
      std::int32_t best_prev = 0;
      for (std::size_t a = 0; a < k; ++a) {
        const double lt =
            precompute ? log_trans_t[b * k + a] : joint_log_transition(a, b);
        const double cand = delta[a] + lt;
        if (cand > best) {
          best = cand;
          best_prev = static_cast<std::int32_t>(a);
        }
      }
      next_delta[b] = best + emission_log(b, aggregate[t]);
      psi[t * k + b] = best_prev;
    }
    delta.swap(next_delta);
  }

  std::vector<std::size_t> path(t_max);
  const auto last = static_cast<std::size_t>(
      std::max_element(delta.begin(), delta.end()) - delta.begin());
  path[t_max - 1] = last;
  for (std::size_t t = t_max - 1; t-- > 0;) {
    path[t] = static_cast<std::size_t>(psi[(t + 1) * k + path[t + 1]]);
  }
  ml::FhmmDecoding out;
  out.log_likelihood = delta[last];
  out.appliance_power.assign(num_chains, std::vector<double>(t_max, 0.0));
  for (std::size_t t = 0; t < t_max; ++t) {
    const std::int32_t* states = unpacked.data() + path[t] * num_chains;
    for (std::size_t c = 0; c < num_chains; ++c) {
      out.appliance_power[c][t] =
          model.chain(c).state_power[static_cast<std::size_t>(states[c])];
    }
  }
  out.joint_path = std::move(path);
  return out;
}

}  // namespace pmiot::reference
