// Floating-point environment guard.
//
// The bit-identical-history contract (DESIGN.md §6) assumes strict IEEE-754
// float32/float64: round-to-nearest, subnormals preserved, no fast-math
// value substitutions. A process that flips FTZ/DAZ in the MXCSR (some
// audio/game runtimes do, and -ffast-math does at startup via crtfastmath)
// would silently change training histories. In FHDNN_CHECKED builds the
// engines reject such an environment at startup instead of diverging from
// the goldens hours later.
#pragma once

#include <string>

namespace fhdnn::util {

/// True when the library was compiled with floating-point contraction:
/// the canary a * b + c, written as one expression, fuses into a single
/// rounding (2^-24) instead of a rounded product plus an add (0). The
/// float kernels' bit-exactness contract needs the separate roundings
/// (-ffp-contract=off, src/CMakeLists.txt).
bool fp_contraction_active();

/// Empty string when the environment is strict IEEE-754; otherwise a
/// human-readable list of problems (FTZ active, DAZ active, rounding mode
/// not nearest, FMA contraction compiled in). Probes behaviour (subnormal
/// arithmetic and the contraction canary through volatiles) plus the MXCSR
/// bits directly on x86.
std::string fp_environment_issues();

/// True when fp_environment_issues() is empty.
bool fp_environment_strict();

/// Throw fhdnn::Error describing the problems when the environment is not
/// strict. Compiling the library with -ffast-math is rejected at compile
/// time (fpenv.cpp has a #error for __FAST_MATH__).
void assert_fp_environment();

}  // namespace fhdnn::util
