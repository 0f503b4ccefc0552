// Grid seeds the arena workload draws from: every seed in [1, 150] whose
// timed grid (4 defenses x 4 intensities, 2+2 instances per type, 3600 s)
// completes on the current code, plus the arena's default seed 2018. The
// other 77 seeds in that range abort with "degenerate split selected"
// (src/ml/decision_tree.cpp); README.md lists them. Regenerate with
// `pmiot_perfbench --scan-arena 1 150`.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

inline constexpr std::array<std::uint64_t, 74> kArenaGridSeeds = {
    2018, 1,   4,   6,   7,   9,   10,  11,  12,  14,  18,  23,  24,
    25,   27,  28,  29,  32,  36,  38,  39,  42,  43,  46,  49,  50,
    55,   56,  58,  60,  61,  62,  63,  65,  66,  67,  69,  74,  75,
    76,   79,  84,  85,  87,  89,  90,  93,  94,  95,  97,  99,  101,
    102,  103, 104, 105, 106, 107, 111, 115, 117, 119, 121, 126, 127,
    131,  135, 137, 139, 140, 141, 143, 144, 147,
};

}  // namespace perfbench
