// Naive joint Viterbi over a factorial HMM: the O(T * K^2) reference the
// factored `ml::FactorialHmm::decode` is held to. Scores and tie-breaking
// match the production decoder (first, i.e. lowest, joint id wins), so the
// decoded paths coincide; log-likelihoods agree to summation-order
// rounding.
#pragma once

#include <cstddef>
#include <span>

#include "ml/fhmm.h"

namespace pmiot::reference {

/// Decodes `aggregate` under `model` by scanning every (predecessor,
/// successor) joint-state pair per timestep.
ml::FhmmDecoding fhmm_decode_naive(const ml::FactorialHmm& model,
                                   std::span<const double> aggregate);

}  // namespace pmiot::reference
