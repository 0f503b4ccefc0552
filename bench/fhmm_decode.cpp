// Hot-loop regression bench for the factored FHMM Viterbi decoder.
//
// The paper's NILM attack path (Figure 2's conventional baseline, SunDance,
// and every defense ablation that re-runs them) bottoms out in
// `FactorialHmm::decode`. The seed ran naive joint Viterbi — O(T * K^2) with
// a K x K joint log-transition table — which is what capped the joint space
// at 4096 states. The factored decoder eliminates one chain per max-sum
// stage, O(T * K * sum_c n_c), with no joint table.
//
// This bench first *validates* the factored path against the naive
// reference `reference::fhmm_decode_naive` (decoded joint paths must be
// identical, log-likelihoods equal to rounding; a mismatch exits nonzero),
// then times both on a 7-day minute-resolution trace at K = 2048 and
// reports the speedup without gating on it. A second, factored-only timing
// runs at
// K = 4096 — a size where the naive decoder's joint table alone would be
// 128 MiB — to pin the cost of the raised state-space cap.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/table.h"
#include "ml/fhmm.h"
#include "reference/fhmm_decode.h"
#include "simd/simd.h"

using namespace pmiot;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Sticky n-state appliance chain with distinct, well-separated powers.
ml::ApplianceChain make_chain(const std::string& name, std::size_t n,
                              double base_kw, Rng& rng) {
  ml::ApplianceChain chain;
  chain.name = name;
  chain.state_power.push_back(0.0);
  double p = base_kw;
  for (std::size_t s = 1; s < n; ++s) {
    p += rng.uniform(0.2, 1.2);
    chain.state_power.push_back(p);
  }
  chain.initial.assign(n, 0.1 / static_cast<double>(n));
  chain.initial[0] += 0.9;
  double init_sum = 0.0;
  for (double v : chain.initial) init_sum += v;
  for (auto& v : chain.initial) v /= init_sum;
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<double> row(n, 0.0);
    for (std::size_t b = 0; b < n; ++b) {
      row[b] = a == b ? 0.9 : rng.uniform(0.02, 0.1);
    }
    double sum = 0.0;
    for (double v : row) sum += v;
    for (auto& v : row) v /= sum;
    chain.transition.push_back(std::move(row));
  }
  chain.validate();
  return chain;
}

/// Samples an aggregate trace from the factorial model plus meter noise.
std::vector<double> sample_aggregate(
    const std::vector<ml::ApplianceChain>& chains, std::size_t t_max,
    double noise, Rng& rng) {
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

std::size_t fanin_sum(const std::vector<ml::ApplianceChain>& chains) {
  std::size_t sum = 0;
  for (const auto& c : chains) sum += c.num_states();
  return sum;
}

}  // namespace

int main() {
  constexpr std::size_t kDays = 7;
  constexpr std::size_t kTrace = kDays * 24 * 60;  // minute resolution
  constexpr double kNoise = 0.12;

  std::cout
      << "==============================================================\n"
         "Factored vs naive FHMM Viterbi (chainwise max-sum elimination)\n"
         "==============================================================\n\n";

  // --- K = 2048: self-check, then time both decoders -----------------------
  Rng rng(2024);
  std::vector<ml::ApplianceChain> chains;
  for (int c = 0; c < 5; ++c) {
    chains.push_back(
        make_chain("app" + std::to_string(c), 4, 0.1 + 0.3 * c, rng));
  }
  chains.push_back(make_chain("app5", 2, 2.0, rng));  // 4^5 * 2 = 2048
  const auto aggregate = sample_aggregate(chains, kTrace, kNoise, rng);
  ml::FactorialHmm fhmm(chains, kNoise);
  std::cout << "model: " << chains.size() << " chains, K = "
            << fhmm.joint_state_count() << " joint states, sum n_c = "
            << fanin_sum(chains) << "; trace: " << kDays
            << " days at 1-min resolution (" << kTrace << " samples)\n"
            << "per-timestep inner terms: naive K^2 = "
            << fhmm.joint_state_count() * fhmm.joint_state_count()
            << ", factored K*sum n_c = "
            << fhmm.joint_state_count() * fanin_sum(chains) << "\n\n";

  const auto f0 = Clock::now();
  const auto factored = fhmm.decode(aggregate);
  const auto f1 = Clock::now();
  std::cout << "factored decode done, validating against naive reference "
               "(this is the slow part)...\n";
  const auto n0 = Clock::now();
  const auto naive = reference::fhmm_decode_naive(fhmm, aggregate);
  const auto n1 = Clock::now();

  // Self-check before any timing claims: identical decoded paths, and
  // log-likelihoods equal up to summation-order rounding.
  if (factored.joint_path != naive.joint_path) {
    std::size_t first = 0;
    while (factored.joint_path[first] == naive.joint_path[first]) ++first;
    std::cerr << "MISMATCH: factored and naive paths diverge at t=" << first
              << " (factored " << factored.joint_path[first] << ", naive "
              << naive.joint_path[first] << ")\n";
    return EXIT_FAILURE;
  }
  const double ll_tol =
      1e-6 * (1.0 + std::fabs(naive.log_likelihood));
  if (std::fabs(factored.log_likelihood - naive.log_likelihood) > ll_tol) {
    std::cerr << "MISMATCH: log-likelihoods differ beyond rounding ("
              << factored.log_likelihood << " vs " << naive.log_likelihood
              << ")\n";
    return EXIT_FAILURE;
  }
  std::cout << "self-check OK: decoded paths identical over " << kTrace
            << " timesteps, log-likelihood matches to rounding\n\n";

  const double naive_ms = ms_between(n0, n1);
  const double factored_ms = ms_between(f0, f1);
  const double speedup = naive_ms / factored_ms;

  // --- K = 4096: beyond the seed's cap, factored only -----------------------
  Rng rng2(2025);
  std::vector<ml::ApplianceChain> big_chains;
  for (int c = 0; c < 6; ++c) {
    big_chains.push_back(
        make_chain("big" + std::to_string(c), 4, 0.1 + 0.25 * c, rng2));
  }
  const auto big_aggregate = sample_aggregate(big_chains, kTrace, kNoise, rng2);
  ml::FactorialHmm big(big_chains, kNoise);
  const auto b0 = Clock::now();
  const auto big_decoding = big.decode(big_aggregate);
  const auto b1 = Clock::now();
  const double big_ms = ms_between(b0, b1);
  if (big_decoding.joint_path.size() != kTrace) {
    std::cerr << "K=4096 decode returned wrong path length\n";
    return EXIT_FAILURE;
  }

  Table table({"decoder", "K", "time (s)", "samples/s"});
  table.add_row()
      .cell("naive joint Viterbi (reference)")
      .cell(fhmm.joint_state_count())
      .cell(naive_ms / 1e3)
      .cell(static_cast<double>(kTrace) / (naive_ms / 1e3), 1);
  table.add_row()
      .cell("factored (chainwise max-sum)")
      .cell(fhmm.joint_state_count())
      .cell(factored_ms / 1e3)
      .cell(static_cast<double>(kTrace) / (factored_ms / 1e3), 1);
  table.add_row()
      .cell("factored, six 4-state chains")
      .cell(big.joint_state_count())
      .cell(big_ms / 1e3)
      .cell(static_cast<double>(kTrace) / (big_ms / 1e3), 1);
  table.print(std::cout, "7-day minute-resolution decode (outputs verified)");

  std::cout << "\nfactored vs naive at K=" << fhmm.joint_state_count() << ": "
            << format_double(speedup, 1) << "x\n";

  // --- SIMD kernel micros: emission batches + chainwise max-sum ------------
  // The decoder's two inner kernels, timed dispatched-vs-scalar in isolation
  // (outputs verified bitwise first — the dispatched path must be a pure
  // speedup, never a different answer).
  double emission_speedup = 1.0;
  double stage_speedup = 1.0;
  {
    constexpr std::size_t kStates = 2048;
    constexpr std::size_t kGroupN = 4;
    constexpr std::size_t kGroupSpan = kStates / kGroupN;
    constexpr int kReps = 4000;
    Rng mrng(77);
    std::vector<double> base(kStates), centers(kStates);
    for (auto& v : base) v = mrng.uniform(-40.0, 0.0);
    for (auto& v : centers) v = mrng.uniform(0.0, 10.0);
    std::vector<double> cur(kStates), lt(kGroupN * kGroupN);
    for (auto& v : cur) v = mrng.uniform(-30.0, 0.0);
    for (auto& v : lt) v = mrng.uniform(-8.0, 0.0);
    std::vector<std::int32_t> origin(kStates);
    for (std::size_t i = 0; i < kStates; ++i) {
      origin[i] = static_cast<std::int32_t>(i % 17);
    }
    std::vector<double> out_a(kStates), out_b(kStates);
    std::vector<std::int32_t> org_a(kStates), org_b(kStates);

    simd::add_log_emission(base.data(), 3.2, centers.data(), kStates, -1.1,
                           0.8, out_a.data());
    simd::scalar::add_log_emission(base.data(), 3.2, centers.data(), kStates,
                                   -1.1, 0.8, out_b.data());
    simd::fhmm_stage_group(cur.data(), origin.data(), lt.data(), kGroupN,
                           kGroupSpan, out_a.data(), org_a.data());
    simd::scalar::fhmm_stage_group(cur.data(), origin.data(), lt.data(),
                                   kGroupN, kGroupSpan, out_b.data(),
                                   org_b.data());
    // (out_a/out_b now hold the stage results; emission equality is covered
    // exhaustively by tests/simd_test.cpp — here we sanity-check the stage.)
    if (out_a != out_b || org_a != org_b) {
      std::cerr << "MISMATCH: dispatched fhmm_stage_group differs from "
                   "scalar\n";
      return EXIT_FAILURE;
    }

    double sink = 0.0;
    const auto es0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      simd::scalar::add_log_emission(base.data(), 3.2 + 1e-9 * r,
                                     centers.data(), kStates, -1.1, 0.8,
                                     out_b.data());
      sink += out_b[static_cast<std::size_t>(r) % kStates];
    }
    const auto es1 = Clock::now();
    const auto ev0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      simd::add_log_emission(base.data(), 3.2 + 1e-9 * r, centers.data(),
                             kStates, -1.1, 0.8, out_a.data());
      sink += out_a[static_cast<std::size_t>(r) % kStates];
    }
    const auto ev1 = Clock::now();

    const auto ss0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      simd::scalar::fhmm_stage_group(cur.data(), origin.data(), lt.data(),
                                     kGroupN, kGroupSpan, out_b.data(),
                                     org_b.data());
      sink += out_b[static_cast<std::size_t>(r) % kStates];
    }
    const auto ss1 = Clock::now();
    const auto sv0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      simd::fhmm_stage_group(cur.data(), origin.data(), lt.data(), kGroupN,
                             kGroupSpan, out_a.data(), org_a.data());
      sink += out_a[static_cast<std::size_t>(r) % kStates];
    }
    const auto sv1 = Clock::now();
    if (!(sink == sink)) return EXIT_FAILURE;  // keep the loops live

    emission_speedup = ms_between(es0, es1) / ms_between(ev0, ev1);
    stage_speedup = ms_between(ss0, ss1) / ms_between(sv0, sv1);
    std::cout << "\nsimd kernel micros (backend " << simd::backend()
              << ", K=" << kStates << "): Gaussian log-emission batch "
              << format_double(emission_speedup, 1)
              << "x, chainwise max-sum stage "
              << format_double(stage_speedup, 1) << "x vs scalar\n";
  }

  bench::BenchJson json("fhmm_decode");
  json.config("joint_states", fhmm.joint_state_count())
      .config("chains", chains.size())
      .config("fanin_sum", fanin_sum(chains))
      .config("trace_samples", kTrace)
      .config("trace_days", kDays)
      .config("noise_kw", kNoise)
      .config("simd_backend", simd::backend());
  json.result("naive_joint", naive_ms,
              static_cast<double>(kTrace) / (naive_ms / 1e3), "samples/s")
      .result("factored", factored_ms,
              static_cast<double>(kTrace) / (factored_ms / 1e3), "samples/s")
      .result("factored_k4096", big_ms,
              static_cast<double>(kTrace) / (big_ms / 1e3), "samples/s");
  json.metric("speedup_vs_naive", speedup)
      .metric("simd_emission_speedup", emission_speedup)
      .metric("simd_stage_speedup", stage_speedup)
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';
  return EXIT_SUCCESS;
}
