// Runtime-dispatched SIMD kernels for the hot data representations
// (DESIGN.md §11): float rows (tensor elementwise ops, relu and its
// backward, and the matmul / matmul_at / matmul_bt register tiles), the
// exact-sum digit planes (carry-save float32 accumulation) and bit-packed
// hypervector words (pack, XOR-bind, popcount hamming).
//
// Dispatch model: `kernels()` returns a table of function pointers resolved
// against util::active_simd(). Each tier's implementations live in their
// own translation unit compiled with the matching target flags
// (simd_avx2.cpp with -mavx2, simd_avx512.cpp with -mavx512f/-mavx512bw);
// tiers provide *partial* tables and the dispatcher overlays them on the
// scalar baseline, so a tier only implements the kernels it accelerates.
// There is no NEON table: aarch64 (and FHDNN_SIMD=neon) runs the scalar
// tier until measured NEON kernels can be built.
//
// Bit-exactness contract (the reason golden histories survive dispatch):
//   * float kernels perform the identical IEEE-754 operation sequence per
//     element as the scalar tier — vector lanes map 1:1 onto independent
//     output elements, multiplies and adds are emitted as separate
//     instructions (the SIMD TUs compile with -ffp-contract=off and no
//     FMA), and there are no reassociated reductions. A reduction is
//     vectorized only across outputs: matmul_tile and matmul_bt_tile give
//     each output element its own lane and walk k sequentially in every
//     lane; relu kernels are a compare plus a blend, never a vector max;
//   * integer and bit kernels are exact by construction.
// tests/test_packed.cpp (row and bit kernels), tests/test_matmul_exact.cpp
// (the matmul tiles), tests/test_conv_exact.cpp (relu) and
// tests/test_exactsum.cpp (the digit-plane add) pin every tier's output
// against the scalar tier bit-for-bit, including NaN/Inf/-0.0 payloads.
//
// These kernels take raw pointers, not Tensor views: they are the innermost
// building blocks underneath the `_into` layer and must stay free of any
// per-call shape machinery.
#pragma once

#include <cstdint>

#include "util/cpu.hpp"

namespace fhdnn::simd {

/// matmul_bt_tile geometry: output rows per tile and panel width (output
/// columns per tile, one SIMD lane per column).
inline constexpr std::int64_t kTileRows = 4;
inline constexpr std::int64_t kTileCols = 16;

/// matmul_tile geometry: at most kGemmRows output rows and kGemmCols
/// output columns (one float lane per column) per call.
inline constexpr std::int64_t kGemmRows = 8;
inline constexpr std::int64_t kGemmCols = 16;

/// exact_sum_add geometry (util/exactsum.hpp): digit planes per element and
/// bits per digit. Six radix-2^48 digits span the 277-bit float32 range.
inline constexpr std::int64_t kExactSumDigits = 6;
inline constexpr int kExactSumDigitBits = 48;

/// One tier's kernel table. Null entries in a tier table mean "no
/// accelerated version"; the dispatcher fills them from lower tiers.
/// All pointer arguments may alias only where the per-kernel contract
/// says so (see each member).
struct Kernels {
  // ---- float row kernels (bit-identical across tiers) ----
  /// y[i] += a * x[i]. y must not alias x unless y == x exactly.
  void (*axpy_f32)(float* y, float a, const float* x, std::int64_t n);
  /// out[i] = x[i] * a. out may alias x.
  void (*scale_f32)(float* out, const float* x, float a, std::int64_t n);
  /// out[i] = a[i] + b[i]. out may alias a and/or b.
  void (*add_f32)(float* out, const float* a, const float* b, std::int64_t n);
  /// out[i] = a[i] - b[i]. out may alias a and/or b.
  void (*sub_f32)(float* out, const float* a, const float* b, std::int64_t n);
  /// out[i] = a[i] * b[i]. out may alias a and/or b.
  void (*mul_f32)(float* out, const float* a, const float* b, std::int64_t n);
  /// out[i] = x[i] < 0 ? +0.0f : x[i] — std::max(x[i], 0.0f) for every
  /// input, NaN and -0.0 included (both pass through). out may equal x
  /// (no partial overlap).
  void (*relu_f32)(float* out, const float* x, std::int64_t n);
  /// out[i] = x[i] <= 0 ? +0.0f : g[i] (NaN x passes g through). out may
  /// equal g and/or x (no partial overlap).
  void (*relu_backward_f32)(float* out, const float* g, const float* x,
                            std::int64_t n);
  /// One register tile of c = a * b (the micro-kernel under
  /// ops::matmul_into and ops::matmul_at_into). For r < rows, j < cols:
  ///   acc = +0.0f
  ///   for kk = 0..k-1: acc = acc + float(A(r, kk) * b[kk*ldb + j])
  ///   c[r*ldc + j] = acc
  /// with A(r, kk) = a[r*a_rs + kk*a_ks]: each output is its own float
  /// lane, one multiply and one add per kk in ascending order — the
  /// former axpy ladder (c zero-filled, then c[j] += a * b[j] per kk), op
  /// for op. (a_rs, a_ks) is (k, 1) for a row-major a and (1, m) for the
  /// transposed a of matmul_at. b rows are read only at columns < cols.
  /// Requires 1 <= rows <= kGemmRows and 1 <= cols <= kGemmCols; c must
  /// not overlap a or b.
  void (*matmul_tile)(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                      std::int64_t rows, const float* b, std::int64_t ldb,
                      std::int64_t k, float* c, std::int64_t ldc,
                      std::int64_t cols);
  /// One register tile of c = a * b^T (the micro-kernel under
  /// ops::matmul_bt_into and the HD classifier). For r < rows, j < cols:
  ///   c[r*ldc + j] = sum_{kk = 0..k-1} double(a[r*lda + kk]) *
  ///                                    double(panel[kk*16 + j])
  /// where each output is its own double lane, starts at +0.0 and adds the
  /// exact float-by-float products in ascending kk — the sequential scalar
  /// reduction, op for op. The lanes are stored as doubles; callers that
  /// want floats round them (matmul_bt_into does). Layout: `a` holds
  /// `rows` rows of k floats with row stride lda; `panel` is the k x 16
  /// packed panel (panel[kk*16 + j] = b[j][kk]; lanes j >= cols are
  /// zero-padded by the packer and never stored); `c` receives rows x cols
  /// doubles with row stride ldc. Requires 1 <= rows <= kTileRows and
  /// 1 <= cols <= kTileCols. c must not overlap a or panel; a and panel
  /// may overlap each other.
  void (*matmul_bt_tile)(const float* a, std::int64_t lda, std::int64_t rows,
                         const float* panel, std::int64_t k, double* c,
                         std::int64_t ldc, std::int64_t cols);

  // ---- integer kernels (exact) ----
  /// Carry-save add of n finite floats into ExactSumVector digit planes.
  /// Plane j (j < kExactSumDigits) starts at planes + j*stride; element e
  /// of plane j is planes[j*stride + e]. |x[e]| = m * 2^shift quanta of
  /// 2^-149 (m < 2^24, shift <= 253); with k = shift / 48 and
  /// off = shift % 48, the kernel adds +-((m << off) mod 2^48) to plane k
  /// and +-(m >> (48 - off)) to plane k + 1 (zero when k is the top
  /// plane), sign from x[e]. No carries: the caller bounds the pending
  /// adds so no digit overflows. Every x[e] must be finite; x must not
  /// overlap the planes.
  void (*exact_sum_add)(std::int64_t* planes, std::int64_t stride,
                        const float* x, std::int64_t n);

  // ---- bit kernels over packed hypervector words (integer-exact) ----
  /// Pack nbits sign bits: bit i of dst = (src[i] >= 0.0f), the library's
  /// sign(0) := +1 convention (NaN packs as 0 / -1, matching `>=`).
  /// Unwritten tail bits of the last word are zeroed. No aliasing.
  void (*pack_signs)(const float* src, std::uint64_t* dst, std::int64_t nbits);
  /// Unpack nbits to bipolar floats: dst[i] = bit set ? +1.0f : -1.0f.
  /// No aliasing.
  void (*unpack_signs)(const std::uint64_t* src, float* dst,
                       std::int64_t nbits);
  /// out[w] = a[w] ^ b[w]. out may alias a and/or b.
  void (*xor_words)(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::int64_t nwords);
  /// Total set bits across nwords words.
  std::uint64_t (*popcount_words)(const std::uint64_t* a, std::int64_t nwords);
  /// popcount(a ^ b) across nwords words — the packed hamming primitive.
  std::uint64_t (*hamming_words)(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords);
};

/// Kernel table for util::active_simd() — re-resolved on every call, so
/// util::set_simd_tier() takes effect immediately (the lookup is an atomic
/// load plus an array index).
const Kernels& kernels();

/// Kernel table for an explicit tier (clamped to detected support).
const Kernels& kernels_for(util::SimdTier tier);

namespace detail {

/// Per-tier partial tables; null when the TU was compiled without the
/// tier's ISA (non-x86 build, or an ancient compiler). Scalar is complete
/// by definition.
const Kernels& scalar_table();
const Kernels* avx2_table();    // null outside x86-64 builds
const Kernels* avx512_table();  // null outside x86-64 builds

}  // namespace detail

}  // namespace fhdnn::simd
