// Compatibility shim. pmiot has one scalar implementation of every kernel;
// the explicit AVX2 backend and its PMIOT_SIMD build option are gone. The
// perfbench package still includes this header and prints backend() on its
// host line, so it stays until the benchmark change of ROADMAP item 3
// edits perfbench.
#pragma once

namespace pmiot::simd {

inline const char* backend() noexcept { return "scalar"; }

}  // namespace pmiot::simd
