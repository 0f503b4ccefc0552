// General k-means (k-means++ init, Lloyd iterations) over rectangular rows:
// the oracle `ml::kmeans1d`, the production 1-D path, is held to bit for bit
// on singleton rows.
#pragma once

#include <vector>

#include "common/rng.h"
#include "ml/kmeans.h"

namespace pmiot::reference {

/// Clusters `rows` (non-empty, rectangular) into k >= 1 groups. If k exceeds
/// the number of distinct rows, k-means++ seeding stops early (duplicates
/// collapse), so fewer centroids may come back; `assignment` is always
/// valid.
ml::KMeansResult kmeans(const std::vector<std::vector<double>>& rows, int k,
                        Rng& rng, int max_iterations = 100);

}  // namespace pmiot::reference
