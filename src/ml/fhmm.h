// Factorial hidden Markov model for energy disaggregation.
//
// This is the conventional NILM baseline the paper's Figure 2 compares
// PowerPlay against (Kolter & Johnson, REDD / SustKDD'11 methodology): each
// appliance is an independent Markov chain over a small set of discrete
// power states; the smart meter observes the *sum* of the per-chain state
// powers plus Gaussian noise. Chains are learned from submetered training
// data (k-means state discovery + empirical transitions), and the aggregate
// test trace is decoded by Viterbi over the joint state space.
//
// Decoding exploits the factorial structure: because the joint transition
// probability is a product of per-chain transitions, the per-timestep joint
// maximization max_a [delta(a) + sum_c log T_c(a_c, b_c)] distributes over
// chains and can be computed by eliminating one chain at a time (max-sum
// variable elimination). That replaces the K^2 terms of naive joint Viterbi
// with K * sum_c n_c terms per timestep — ~170x fewer at K = 4096 with six
// 4-state chains — and never materializes a K x K joint transition table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pmiot::ml {

/// One appliance's Markov chain over discrete power levels.
struct ApplianceChain {
  std::string name;
  std::vector<double> state_power;              ///< kW per state, state 0 = off/lowest
  std::vector<double> initial;                  ///< [state], sums to 1
  std::vector<std::vector<double>> transition;  ///< [from][to], rows sum to 1

  std::size_t num_states() const noexcept { return state_power.size(); }

  /// Throws InvalidArgument on shape/stochasticity violations.
  void validate() const;
};

/// Learns a chain from a submetered power trace: k-means finds `num_states`
/// power levels, then transitions/initial are the empirical frequencies of
/// the quantized trace. Requires a non-empty trace and num_states >= 1.
ApplianceChain learn_chain(std::string name, std::span<const double> submetered,
                           int num_states, Rng& rng);

/// Joint decoding result: per-appliance inferred power over time.
struct FhmmDecoding {
  std::vector<std::vector<double>> appliance_power;  ///< [appliance][t], kW
  std::vector<std::size_t> joint_path;               ///< [t] decoded joint state
  double log_likelihood = 0.0;
};

class FactorialHmm {
 public:
  /// Upper bound on the joint state space (product of per-chain states).
  /// The factored decoder needs only O(K) scratch per timestep plus the
  /// O(T * K) backpointer table, so the cap guards decode memory, not a
  /// K^2 transition table.
  static constexpr std::size_t kMaxJointStates = std::size_t{1} << 20;

  /// `noise_stddev` is the observation noise of the aggregate meter (> 0).
  FactorialHmm(std::vector<ApplianceChain> chains, double noise_stddev);

  std::size_t num_appliances() const noexcept { return chains_.size(); }

  /// Product of per-chain state counts — the joint space Viterbi runs over.
  std::size_t joint_state_count() const noexcept { return joint_count_; }

  const ApplianceChain& chain(std::size_t i) const { return chains_[i]; }

  /// Observation noise of the aggregate meter (kW).
  double noise_stddev() const noexcept { return noise_stddev_; }

  /// Viterbi decode of an aggregate trace by chainwise max-sum elimination,
  /// O(T * K * sum_c n_c). Score ties break toward the lowest joint state
  /// id, so the decoded path is the naive O(T * K^2) joint scan's
  /// (reference::fhmm_decode_naive).
  FhmmDecoding decode(std::span<const double> aggregate) const;

 private:
  /// Flat K x C table: entry [j * num_appliances() + c] is chain c's state
  /// index in joint state j. Computed once per decode; replaces the seed's
  /// per-joint heap-allocated unpack vectors.
  std::vector<std::int32_t> unpack_all() const;

  /// Flat per-chain log transition tables, chain c at `offsets[c]`, laid out
  /// [from * n_c + to], with the same kMinProb floor the seed applied.
  void chain_log_transitions(std::vector<double>& flat,
                             std::vector<std::size_t>& offsets) const;

  /// Decode epilogue: backtracks `psi` from the best final state and fills
  /// the decoding result from the flat unpack table.
  FhmmDecoding backtrack(const std::vector<double>& delta,
                         const std::vector<std::int32_t>& psi,
                         std::size_t t_max,
                         const std::vector<std::int32_t>& unpacked) const;

  std::vector<ApplianceChain> chains_;
  double noise_stddev_;
  std::size_t joint_count_ = 1;
  std::vector<double> joint_power_;  ///< [joint] sum of chain state powers
};

}  // namespace pmiot::ml
