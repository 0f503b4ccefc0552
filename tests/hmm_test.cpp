// Unit tests for the Gaussian HMM and the factorial HMM disaggregator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "ml/fhmm.h"
#include "ml/hmm.h"
#include "reference/fhmm_decode.h"

namespace pmiot::ml {
namespace {

/// A well-separated 2-state HMM (low ~0, high ~5) with sticky transitions.
HmmParams two_state_params() {
  HmmParams p;
  p.initial = {0.5, 0.5};
  p.transition = {{0.95, 0.05}, {0.05, 0.95}};
  p.mean = {0.0, 5.0};
  p.stddev = {0.3, 0.3};
  return p;
}

/// Samples an observation sequence plus true state path from params.
std::pair<std::vector<double>, std::vector<int>> sample(const HmmParams& p,
                                                        int n, Rng& rng) {
  std::vector<double> obs(static_cast<std::size_t>(n));
  std::vector<int> states(static_cast<std::size_t>(n));
  std::size_t s = rng.categorical(p.initial);
  for (int t = 0; t < n; ++t) {
    states[static_cast<std::size_t>(t)] = static_cast<int>(s);
    obs[static_cast<std::size_t>(t)] = rng.normal(p.mean[s], p.stddev[s]);
    s = rng.categorical(p.transition[s]);
  }
  return {obs, states};
}

TEST(HmmParams, ValidationCatchesBadShapes) {
  auto p = two_state_params();
  p.initial = {0.5};
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = two_state_params();
  p.transition[0] = {0.5, 0.6};
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = two_state_params();
  p.stddev[1] = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(GaussianHmm, ViterbiRecoversStates) {
  Rng rng(1);
  const auto params = two_state_params();
  const auto [obs, truth] = sample(params, 500, rng);
  GaussianHmm hmm(params);
  const auto decoded = hmm.viterbi(obs);
  std::size_t correct = 0;
  for (std::size_t t = 0; t < truth.size(); ++t) {
    correct += decoded[t] == truth[t] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(truth.size()),
            0.98);
}

TEST(GaussianHmm, LogLikelihoodPrefersTrueModel) {
  Rng rng(2);
  const auto params = two_state_params();
  const auto [obs, truth] = sample(params, 400, rng);
  (void)truth;
  GaussianHmm good(params);
  auto bad_params = params;
  bad_params.mean = {2.0, 3.0};  // wrong emission means
  GaussianHmm bad(bad_params);
  EXPECT_GT(good.log_likelihood(obs), bad.log_likelihood(obs));
}

TEST(GaussianHmm, PosteriorRowsSumToOne) {
  Rng rng(3);
  const auto params = two_state_params();
  const auto [obs, truth] = sample(params, 200, rng);
  (void)truth;
  GaussianHmm hmm(params);
  const auto gamma = hmm.posterior(obs);
  ASSERT_EQ(gamma.size(), obs.size());
  for (const auto& row : gamma) {
    double sum = 0.0;
    for (double g : row) {
      EXPECT_GE(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GaussianHmm, BaumWelchIncreasesLikelihood) {
  Rng rng(4);
  const auto params = two_state_params();
  const auto [obs, truth] = sample(params, 600, rng);
  (void)truth;
  auto init = GaussianHmm::init_from_data(2, obs, rng);
  const double before = init.log_likelihood(obs);
  const auto result = init.fit(obs, 30);
  EXPECT_GE(result.log_likelihood, before - 1e-6);
  EXPECT_GE(result.iterations, 1);
}

TEST(GaussianHmm, BaumWelchRecoversMeans) {
  Rng rng(5);
  const auto params = two_state_params();
  const auto [obs, truth] = sample(params, 1500, rng);
  (void)truth;
  auto hmm = GaussianHmm::init_from_data(2, obs, rng);
  hmm.fit(obs, 50);
  std::vector<double> means = hmm.params().mean;
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 0.2);
  EXPECT_NEAR(means[1], 5.0, 0.2);
}

TEST(GaussianHmm, InitFromDataSortsStateMeans) {
  Rng rng(6);
  std::vector<double> obs;
  for (int i = 0; i < 200; ++i) {
    obs.push_back(rng.normal(i % 2 == 0 ? 1.0 : 8.0, 0.1));
  }
  const auto hmm = GaussianHmm::init_from_data(2, obs, rng);
  EXPECT_LT(hmm.params().mean[0], hmm.params().mean[1]);
}

TEST(GaussianHmm, RejectsEmptyObservations) {
  GaussianHmm hmm(two_state_params());
  EXPECT_THROW(hmm.viterbi({}), InvalidArgument);
  EXPECT_THROW(hmm.log_likelihood({}), InvalidArgument);
}

// --- Factorial HMM ----------------------------------------------------------

/// Two appliances: a 1 kW device and a 3 kW device, both sticky on/off.
std::vector<ApplianceChain> two_chains() {
  ApplianceChain a;
  a.name = "one";
  a.state_power = {0.0, 1.0};
  a.initial = {0.9, 0.1};
  a.transition = {{0.95, 0.05}, {0.1, 0.9}};
  ApplianceChain b;
  b.name = "three";
  b.state_power = {0.0, 3.0};
  b.initial = {0.9, 0.1};
  b.transition = {{0.97, 0.03}, {0.08, 0.92}};
  return {a, b};
}

TEST(ApplianceChain, ValidationWorks) {
  auto chains = two_chains();
  chains[0].initial = {0.5, 0.6};
  EXPECT_THROW(chains[0].validate(), InvalidArgument);
}

TEST(FactorialHmm, JointStateCount) {
  FactorialHmm fhmm(two_chains(), 0.1);
  EXPECT_EQ(fhmm.joint_state_count(), 4u);
  EXPECT_EQ(fhmm.num_appliances(), 2u);
}

TEST(FactorialHmm, DecodesTwoApplianceSum) {
  Rng rng(7);
  const auto chains = two_chains();
  // Simulate the two chains and their noisy sum.
  const int n = 400;
  std::vector<std::vector<double>> truth(2, std::vector<double>(n));
  std::vector<double> aggregate(n);
  std::vector<std::size_t> state = {0, 0};
  for (int t = 0; t < n; ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      truth[c][static_cast<std::size_t>(t)] = chains[c].state_power[state[c]];
      total += chains[c].state_power[state[c]];
      state[c] = rng.categorical(chains[c].transition[state[c]]);
    }
    aggregate[static_cast<std::size_t>(t)] = total + rng.normal(0.0, 0.05);
  }

  FactorialHmm fhmm(chains, 0.08);
  const auto decoding = fhmm.decode(aggregate);
  ASSERT_EQ(decoding.appliance_power.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    std::size_t correct = 0;
    for (int t = 0; t < n; ++t) {
      correct += std::fabs(decoding.appliance_power[c][static_cast<std::size_t>(t)] -
                           truth[c][static_cast<std::size_t>(t)]) < 0.5
                     ? 1
                     : 0;
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.95) << chains[c].name;
  }
}

TEST(FactorialHmm, RejectsHugeJointSpace) {
  // 21 chains x 2 states = 2^21 joint states > the 2^20 cap.
  std::vector<ApplianceChain> chains;
  for (int i = 0; i < 21; ++i) {
    auto c = two_chains()[0];
    c.name = "c" + std::to_string(i);
    chains.push_back(c);
  }
  EXPECT_THROW(FactorialHmm(chains, 0.1), InvalidArgument);
}

TEST(FactorialHmm, DecodesBeyondTheOldJointCap) {
  // 13 chains x 2 states = 8192 joint states — over the seed's 4096 cap,
  // which only existed to bound the K^2 joint transition table the factored
  // decoder no longer builds.
  std::vector<ApplianceChain> chains;
  for (int i = 0; i < 13; ++i) {
    auto c = two_chains()[i % 2];
    c.name = "c" + std::to_string(i);
    c.state_power[1] = 0.5 + 0.25 * i;
    chains.push_back(c);
  }
  FactorialHmm fhmm(chains, 0.2);
  EXPECT_EQ(fhmm.joint_state_count(), 8192u);
  const std::vector<double> aggregate = {0.0, 0.5, 0.75, 0.0};
  const auto decoding = fhmm.decode(aggregate);
  ASSERT_EQ(decoding.appliance_power.size(), 13u);
  ASSERT_EQ(decoding.joint_path.size(), aggregate.size());
  for (std::size_t j : decoding.joint_path) EXPECT_LT(j, 8192u);
}

// --- factored vs naive decoder equivalence ----------------------------------

/// Random stochastic vector of length n with all entries bounded away from 0.
std::vector<double> random_simplex(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  double sum = 0.0;
  for (auto& x : v) {
    x = rng.uniform(0.05, 1.0);
    sum += x;
  }
  for (auto& x : v) x /= sum;
  return v;
}

/// Random model with `num_chains` chains of 2-5 states each, truncated so
/// the joint space stays small enough for the naive reference.
std::vector<ApplianceChain> random_chains(std::size_t num_chains, Rng& rng,
                                          std::size_t max_joint = 1024) {
  std::vector<ApplianceChain> chains;
  std::size_t joint = 1;
  for (std::size_t c = 0; c < num_chains; ++c) {
    auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
    while (joint * n > max_joint && n > 2) --n;
    if (joint * n > max_joint) break;
    joint *= n;
    ApplianceChain chain;
    chain.name = "chain" + std::to_string(c);
    for (std::size_t s = 0; s < n; ++s) {
      chain.state_power.push_back(s == 0 ? 0.0 : rng.uniform(0.2, 3.0));
    }
    chain.initial = random_simplex(n, rng);
    for (std::size_t s = 0; s < n; ++s) {
      chain.transition.push_back(random_simplex(n, rng));
    }
    chain.validate();
    chains.push_back(std::move(chain));
  }
  return chains;
}

/// Samples an aggregate observation trace from the chains plus noise.
std::vector<double> sample_aggregate(const std::vector<ApplianceChain>& chains,
                                     std::size_t t_max, double noise,
                                     Rng& rng) {
  std::vector<std::size_t> state(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    state[c] = rng.categorical(chains[c].initial);
  }
  std::vector<double> aggregate(t_max);
  for (std::size_t t = 0; t < t_max; ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      total += chains[c].state_power[state[c]];
      state[c] = rng.categorical(chains[c].transition[state[c]]);
    }
    aggregate[t] = total + rng.normal(0.0, noise);
  }
  return aggregate;
}

TEST(FactorialHmm, FactoredMatchesNaiveOnRandomModels) {
  Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const auto num_chains = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const auto chains = random_chains(num_chains, rng);
    // Trace lengths deliberately include the degenerate T=1 decode.
    const auto t_max = trial < 3
                           ? static_cast<std::size_t>(trial + 1)
                           : static_cast<std::size_t>(rng.uniform_int(2, 60));
    const double noise = rng.uniform(0.05, 0.4);
    const auto aggregate = sample_aggregate(chains, t_max, noise, rng);

    FactorialHmm fhmm(chains, noise);
    const auto reference = reference::fhmm_decode_naive(fhmm, aggregate);
    const auto factored = fhmm.decode(aggregate);

    ASSERT_EQ(factored.joint_path, reference.joint_path)
        << "trial " << trial << " (" << chains.size() << " chains, K="
        << fhmm.joint_state_count() << ", T=" << t_max << ")";
    EXPECT_EQ(factored.appliance_power, reference.appliance_power);
    EXPECT_NEAR(factored.log_likelihood, reference.log_likelihood,
                1e-6 * (1.0 + std::fabs(reference.log_likelihood)));
  }
}

TEST(FactorialHmm, TieBreaksTowardLowestJointStateLikeNaive) {
  // Two 2-state chains with *uniform* transitions and initials: every
  // per-chain log term is the same constant, so candidate scores differ
  // only via delta, which both decoders compute identically — score ties
  // are exact. Powers make joints (0,1)=id 1 and (1,0)=id 2 tie exactly
  // under obs=1.0; both decoders must resolve to id 1 (first-index wins).
  ApplianceChain a;
  a.name = "a";
  a.state_power = {0.0, 1.0};
  a.initial = {0.5, 0.5};
  a.transition = {{0.5, 0.5}, {0.5, 0.5}};
  auto b = a;
  b.name = "b";
  const std::vector<ApplianceChain> chains = {a, b};
  const std::vector<double> aggregate = {1.0, 1.0, 0.0};

  FactorialHmm fhmm(chains, 0.1);
  const auto reference = reference::fhmm_decode_naive(fhmm, aggregate);
  const auto factored = fhmm.decode(aggregate);

  ASSERT_EQ(factored.joint_path, reference.joint_path);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(factored.joint_path[t], 1u) << "t=" << t;  // (a=0, b=1)
  }
  EXPECT_EQ(factored.joint_path[2], 0u);
}

TEST(LearnChain, DiscoversPowerLevels) {
  Rng rng(8);
  std::vector<double> trace;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (int t = 0; t < 10; ++t) trace.push_back(rng.normal(0.0, 0.01));
    for (int t = 0; t < 6; ++t) trace.push_back(rng.normal(2.0, 0.02));
  }
  const auto chain = learn_chain("test", trace, 2, rng);
  ASSERT_EQ(chain.num_states(), 2u);
  EXPECT_NEAR(chain.state_power[0], 0.0, 0.1);
  EXPECT_NEAR(chain.state_power[1], 2.0, 0.1);
  // Sticky dynamics: staying is more likely than switching.
  EXPECT_GT(chain.transition[0][0], chain.transition[0][1]);
  EXPECT_GT(chain.transition[1][1], chain.transition[1][0]);
}

TEST(LearnChain, StatePowersAreSorted) {
  Rng rng(9);
  std::vector<double> trace;
  for (int i = 0; i < 300; ++i) {
    trace.push_back((i / 10) % 3 == 0 ? 5.0 : ((i / 10) % 3 == 1 ? 0.0 : 2.0));
  }
  const auto chain = learn_chain("three-level", trace, 3, rng);
  for (std::size_t s = 1; s < chain.num_states(); ++s) {
    EXPECT_LE(chain.state_power[s - 1], chain.state_power[s]);
  }
}

class FhmmNoise : public ::testing::TestWithParam<double> {};

TEST_P(FhmmNoise, DecodingDegradesGracefully) {
  Rng rng(10);
  const auto chains = two_chains();
  const int n = 200;
  std::vector<double> aggregate(n);
  std::vector<std::size_t> state = {0, 0};
  for (int t = 0; t < n; ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      total += chains[c].state_power[state[c]];
      state[c] = rng.categorical(chains[c].transition[state[c]]);
    }
    aggregate[static_cast<std::size_t>(t)] =
        total + rng.normal(0.0, GetParam());
  }
  FactorialHmm fhmm(chains, std::max(0.05, GetParam()));
  const auto decoding = fhmm.decode(aggregate);
  EXPECT_EQ(decoding.appliance_power[0].size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, FhmmNoise,
                         ::testing::Values(0.01, 0.1, 0.3, 0.6));

}  // namespace
}  // namespace pmiot::ml
