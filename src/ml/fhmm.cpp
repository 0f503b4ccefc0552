#include "ml/fhmm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "ml/kmeans.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "simd/simd.h"

namespace pmiot::ml {
namespace {

obs::Counter& joint_states_pruned_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "ml.fhmm.joint_states_pruned");
  return c;
}

obs::Counter& chain_eliminations_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "ml.fhmm.chain_eliminations");
  return c;
}

constexpr double kMinProb = 1e-9;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Keeps the `beam` highest entries of `delta` and masks the rest to -inf.
/// Deterministic under ties: entries strictly above the cutoff all survive,
/// then entries equal to the cutoff survive in ascending joint-id order
/// until exactly `beam` remain.
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
  std::uint64_t pruned = 0;
  for (auto& v : delta) {
    if (v > cutoff) continue;
    if (v == cutoff && keep_at_cutoff > 0) {
      --keep_at_cutoff;
      continue;
    }
    v = kNegInf;
    ++pruned;
  }
  joint_states_pruned_counter().add(pruned);
}

}  // namespace

void ApplianceChain::validate() const {
  const std::size_t n = state_power.size();
  PMIOT_CHECK(n >= 1, "chain needs at least one state");
  PMIOT_CHECK(initial.size() == n, "initial size mismatch");
  PMIOT_CHECK(transition.size() == n, "transition row count mismatch");
  double s0 = 0.0;
  for (double p : initial) {
    PMIOT_CHECK(p >= 0.0, "negative initial probability");
    s0 += p;
  }
  PMIOT_CHECK(std::fabs(s0 - 1.0) < 1e-6, "initial must sum to 1");
  for (const auto& row : transition) {
    PMIOT_CHECK(row.size() == n, "transition column count mismatch");
    double s = 0.0;
    for (double p : row) {
      PMIOT_CHECK(p >= 0.0, "negative transition probability");
      s += p;
    }
    PMIOT_CHECK(std::fabs(s - 1.0) < 1e-6, "transition rows must sum to 1");
  }
}

ApplianceChain learn_chain(std::string name, std::span<const double> submetered,
                           int num_states, Rng& rng) {
  PMIOT_CHECK(!submetered.empty(), "need training data");
  PMIOT_CHECK(num_states >= 1, "need at least one state");

  auto clusters = kmeans1d(submetered, num_states, rng);
  const auto n = clusters.centroids.size();

  ApplianceChain chain;
  chain.name = std::move(name);
  chain.state_power.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    chain.state_power[c] = std::max(clusters.centroids[c][0], 0.0);
  }
  // Sort states by power so state 0 is off/lowest; remap assignments.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return chain.state_power[a] < chain.state_power[b];
  });
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[order[i]] = i;
  std::sort(chain.state_power.begin(), chain.state_power.end());

  std::vector<std::size_t> seq(submetered.size());
  for (std::size_t t = 0; t < submetered.size(); ++t) {
    seq[t] = rank[static_cast<std::size_t>(clusters.assignment[t])];
  }

  // Empirical initial/transition with add-one style smoothing so every
  // transition stays possible during joint decoding.
  chain.initial.assign(n, kMinProb);
  chain.initial[seq.front()] += 1.0;
  double init_norm = 0.0;
  for (double v : chain.initial) init_norm += v;
  for (auto& v : chain.initial) v /= init_norm;

  chain.transition.assign(n, std::vector<double>(n, 0.5));
  for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
    chain.transition[seq[t]][seq[t + 1]] += 1.0;
  }
  for (auto& row : chain.transition) {
    double s = 0.0;
    for (double v : row) s += v;
    for (auto& v : row) v /= s;
  }
  chain.validate();
  return chain;
}

FactorialHmm::FactorialHmm(std::vector<ApplianceChain> chains,
                           double noise_stddev)
    : chains_(std::move(chains)), noise_stddev_(noise_stddev) {
  PMIOT_CHECK(!chains_.empty(), "need at least one chain");
  PMIOT_CHECK(noise_stddev_ > 0.0, "noise stddev must be positive");
  for (const auto& c : chains_) c.validate();
  joint_count_ = 1;
  for (const auto& c : chains_) {
    joint_count_ *= c.num_states();
    PMIOT_CHECK(joint_count_ <= kMaxJointStates, "joint state space too large");
  }
  // Mixed-radix walk over the joint space (chain C-1 is the least
  // significant digit, matching the joint-id packing).
  joint_power_.resize(joint_count_);
  std::vector<std::size_t> digits(chains_.size(), 0);
  for (std::size_t j = 0; j < joint_count_; ++j) {
    double p = 0.0;
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      p += chains_[c].state_power[digits[c]];
    }
    joint_power_[j] = p;
    for (std::size_t c = chains_.size(); c-- > 0;) {
      if (++digits[c] < chains_[c].num_states()) break;
      digits[c] = 0;
    }
  }
}

std::vector<std::int32_t> FactorialHmm::unpack_all() const {
  const std::size_t num_chains = chains_.size();
  std::vector<std::int32_t> flat(joint_count_ * num_chains);
  std::vector<std::int32_t> digits(num_chains, 0);
  for (std::size_t j = 0; j < joint_count_; ++j) {
    std::copy(digits.begin(), digits.end(), flat.begin() + j * num_chains);
    for (std::size_t c = num_chains; c-- > 0;) {
      if (++digits[c] < static_cast<std::int32_t>(chains_[c].num_states())) {
        break;
      }
      digits[c] = 0;
    }
  }
  return flat;
}

void FactorialHmm::chain_log_transitions(
    std::vector<double>& flat, std::vector<std::size_t>& offsets) const {
  flat.clear();
  offsets.resize(chains_.size());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    offsets[c] = flat.size();
    const auto& chain = chains_[c];
    for (std::size_t a = 0; a < chain.num_states(); ++a) {
      for (std::size_t b = 0; b < chain.num_states(); ++b) {
        flat.push_back(std::log(std::max(chain.transition[a][b], kMinProb)));
      }
    }
  }
}

FhmmDecoding FactorialHmm::backtrack(
    const std::vector<double>& delta, const std::vector<std::int32_t>& psi,
    std::size_t t_max, const std::vector<std::int32_t>& unpacked) const {
  const std::size_t k = joint_count_;
  const std::size_t num_chains = chains_.size();

  std::vector<std::size_t> path(t_max);
  const auto last = static_cast<std::size_t>(
      std::max_element(delta.begin(), delta.end()) - delta.begin());
  path[t_max - 1] = last;
  for (std::size_t t = t_max - 1; t-- > 0;) {
    path[t] = static_cast<std::size_t>(psi[(t + 1) * k + path[t + 1]]);
  }

  FhmmDecoding out;
  out.log_likelihood = delta[last];
  out.appliance_power.assign(num_chains, std::vector<double>(t_max, 0.0));
  for (std::size_t t = 0; t < t_max; ++t) {
    const std::int32_t* states = unpacked.data() + path[t] * num_chains;
    for (std::size_t c = 0; c < num_chains; ++c) {
      out.appliance_power[c][t] =
          chains_[c].state_power[static_cast<std::size_t>(states[c])];
    }
  }
  out.joint_path = std::move(path);
  return out;
}

// Factored (chainwise max-sum) Viterbi. Per timestep, the joint
// maximization over all K predecessors is computed by eliminating one
// chain at a time: with `cur` initialized to delta, the stage for chain c
// replaces coordinate c's "from" index with its "to" index,
//
//   next[.., b_c, ..] = max over a_c of cur[.., a_c, ..] + log T_c(a_c, b_c),
//
// carrying the originating joint id alongside. After all stages,
// cur[b] = max_a [delta(a) + sum_c log T_c(a_c, b_c)] for every successor b
// simultaneously, at K * n_c work per stage instead of K^2 total.
//
// Stages run from chain C-1 (least significant joint-id digit) down to
// chain 0 (most significant) with a strict `>` over ascending a_c, which
// greedily lexicographically minimizes (a_0, .., a_{C-1}) over the argmax
// set — i.e. exact ties resolve to the lowest joint id, matching the naive
// joint scan's first-index-wins order (reference::fhmm_decode_naive).
FhmmDecoding FactorialHmm::decode(std::span<const double> aggregate,
                                  FhmmDecodeOptions options) const {
  PMIOT_CHECK(!aggregate.empty(), "need observations");
  static obs::Timer& decode_timer =
      obs::MetricsRegistry::instance().timer("ml.fhmm.decode_factored");
  obs::ScopedTimer span(decode_timer);
  const std::size_t k = joint_count_;
  const std::size_t t_max = aggregate.size();
  const std::size_t num_chains = chains_.size();

  const auto unpacked = unpack_all();
  std::vector<double> chain_lt;
  std::vector<std::size_t> lt_offset;
  chain_log_transitions(chain_lt, lt_offset);

  std::vector<double> log_init(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const std::int32_t* states = unpacked.data() + j * num_chains;
    for (std::size_t c = 0; c < num_chains; ++c) {
      log_init[j] += std::log(std::max(
          chains_[c].initial[static_cast<std::size_t>(states[c])], kMinProb));
    }
  }

  // stride[c] = product of state counts of chains after c; coordinate c of
  // joint id j is (j / stride[c]) % n_c.
  std::vector<std::size_t> stride(num_chains);
  stride[num_chains - 1] = 1;
  for (std::size_t c = num_chains - 1; c-- > 0;) {
    stride[c] = stride[c + 1] * chains_[c + 1].num_states();
  }

  const double inv_2var = 0.5 / (noise_stddev_ * noise_stddev_);
  const double log_norm = -std::log(noise_stddev_ * std::sqrt(2.0 * M_PI));

  // Minimum span width worth routing through the vector stage kernel: the
  // innermost stage (stride 1) stays on the inline scalar loop either way.
  constexpr std::size_t kVectorSpanMin = 4;
  const bool vectorize = simd::active();

  std::vector<double> delta(k);
  std::vector<double> next_delta(k);
  std::vector<double> cur(k), nxt(k);
  std::vector<std::int32_t> cur_origin(k), nxt_origin(k);
  std::vector<double> beam_scratch;
  std::vector<std::int32_t> psi(t_max * k, 0);

  // delta[j] = log_init[j] + (log_norm - d*d*inv_2var), d = obs -
  // joint_power_[j] — the SIMD batch is element-for-element the same
  // arithmetic as the scalar reference (see simd.h contract).
  simd::add_log_emission(log_init.data(), aggregate[0], joint_power_.data(),
                         k, log_norm, inv_2var, delta.data());
  for (std::size_t t = 1; t < t_max; ++t) {
    prune_to_beam(delta, options.beam_width, beam_scratch);
    std::copy(delta.begin(), delta.end(), cur.begin());
    std::iota(cur_origin.begin(), cur_origin.end(), 0);
    for (std::size_t c = num_chains; c-- > 0;) {
      const std::size_t n = chains_[c].num_states();
      if (n == 1) continue;  // one-state chain: identity stage
      const std::size_t s = stride[c];
      const std::size_t group = n * s;
      const double* lt = chain_lt.data() + lt_offset[c];
      if (vectorize && s >= kVectorSpanMin) {
        // Vector path: lanes ride the contiguous span offset; compare
        // chain (strict >, ascending a) identical to the loop below.
        for (std::size_t base0 = 0; base0 < k; base0 += group) {
          simd::fhmm_stage_group(cur.data() + base0,
                                 cur_origin.data() + base0, lt, n, s,
                                 nxt.data() + base0,
                                 nxt_origin.data() + base0);
        }
      } else {
        for (std::size_t base0 = 0; base0 < k; base0 += group) {
          for (std::size_t lo = 0; lo < s; ++lo) {
            const std::size_t base = base0 + lo;
            for (std::size_t b = 0; b < n; ++b) {
              double best = kNegInf;
              std::size_t best_a = 0;
              for (std::size_t a = 0; a < n; ++a) {
                const double cand = cur[base + a * s] + lt[a * n + b];
                if (cand > best) {
                  best = cand;
                  best_a = a;
                }
              }
              nxt[base + b * s] = best;
              nxt_origin[base + b * s] = cur_origin[base + best_a * s];
            }
          }
        }
      }
      cur.swap(nxt);
      cur_origin.swap(nxt_origin);
      chain_eliminations_counter().add();
    }
    simd::add_log_emission(cur.data(), aggregate[t], joint_power_.data(), k,
                           log_norm, inv_2var, next_delta.data());
    std::memcpy(psi.data() + t * k, cur_origin.data(),
                k * sizeof(std::int32_t));
    delta.swap(next_delta);
  }
  return backtrack(delta, psi, t_max, unpacked);
}

}  // namespace pmiot::ml
