// Build provenance: compile-time facts every tool can print
// (--print-config) and every bench harness can stamp into its
// BENCH_*.json output, so its numbers carry the configuration that
// produced them.
#pragma once

#include <string>

namespace mpcgs {

/// CMAKE_BUILD_TYPE the library was compiled with ("Release", "Debug",
/// "unknown" outside CMake).
const char* buildType();

/// `git describe --always --dirty` captured at configure time
/// ("unknown" outside a git checkout).
const char* gitDescribe();

/// Widest SIMD register the compiler could target, in doubles per vector
/// (8 = AVX-512, 4 = AVX/AVX2, 2 = SSE2/NEON, 1 = scalar). The likelihood
/// kernels rely on auto-vectorization at exactly this width.
int simdWidthDoubles();

/// Human-readable multi-line summary: build type, SIMD width, git
/// describe, and the runtime thread default (hardwareThreads()).
std::string buildConfigSummary();

/// The same facts as one JSON object, e.g.
/// {"build_type": "Release", "simd_doubles": 4, "git": "abc1234",
///  "default_threads": 8} — embedded under "provenance" in BENCH_*.json.
std::string buildProvenanceJson();

/// Print a loud stderr warning when the configure-time git describe is
/// "-dirty" (or unknown): a BENCH_*.json stamped from an unclean tree
/// can't be reproduced from any commit. Bench harnesses call
/// this right before writing `path`. Returns true when the warning fired.
bool warnIfDirtyProvenance(const char* path);

}  // namespace mpcgs
