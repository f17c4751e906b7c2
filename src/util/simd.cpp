#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace fhdnn::simd {

namespace {

// ---- scalar tier: the golden oracle ------------------------------------
// Deliberately plain loops: this is the reference semantics every wider
// tier must reproduce bit-for-bit, and the fallback on CPUs (or build
// configurations) without vector units.

void axpy_scalar(float* y, float a, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scale_scalar(float* out, const float* x, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] * a;
}

void add_scalar(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_scalar(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_scalar(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// std::max(x, 0.0f) is (x < 0) ? 0.0f : x: NaN and -0.0 pass through.
// Branch-free as a bit mask: clearing every bit of x where x < 0 yields
// +0.0 there and keeps x's exact bits (NaN payloads, -0.0, denormals)
// everywhere else, so the loop needs no jump per element.
void relu_scalar(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t keep = static_cast<std::uint32_t>(x[i] < 0.0F) - 1U;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) & keep);
  }
}

// x <= 0 ? 0.0f : g, with the same mask: NaN x keeps g's bits.
void relu_backward_scalar(float* out, const float* g, const float* x,
                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t keep = static_cast<std::uint32_t>(x[i] <= 0.0F) - 1U;
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
  }
}

// The axpy ladder on a tile-sized accumulator block: acc starts at +0.0
// and each kk adds the rounded product av * b[kk][j] to every live output.
void matmul_tile_scalar(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                        std::int64_t rows, const float* b, std::int64_t ldb,
                        std::int64_t k, float* c, std::int64_t ldc,
                        std::int64_t cols) {
  float acc[kGemmRows][kGemmCols] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float av = a[r * a_rs + kk * a_ks];
      for (std::int64_t j = 0; j < cols; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Register-tiled like the SIMD tiers: each 2-row x 4-column block keeps
// eight named double accumulators (named, so they live in registers
// rather than in a stack array), and the independent add chains hide the
// add latency. Every accumulator is still one output's sequential sum.
void matmul_bt_tile_scalar(const float* a, std::int64_t lda, std::int64_t rows,
                           const float* panel, std::int64_t k, double* c,
                           std::int64_t ldc, std::int64_t cols) {
  for (std::int64_t j0 = 0; j0 < cols; j0 += 4) {
    const std::int64_t jn = std::min<std::int64_t>(4, cols - j0);
    for (std::int64_t r0 = 0; r0 < rows; r0 += 2) {
      // A missing second row recomputes the first and is never stored.
      const bool pair = r0 + 1 < rows;
      const float* a0 = a + r0 * lda;
      const float* a1 = pair ? a0 + lda : a0;
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* p = panel + kk * kTileCols + j0;
        const double p0 = p[0], p1 = p[1], p2 = p[2], p3 = p[3];
        const double x0 = a0[kk], x1 = a1[kk];
        s00 += x0 * p0;
        s01 += x0 * p1;
        s02 += x0 * p2;
        s03 += x0 * p3;
        s10 += x1 * p0;
        s11 += x1 * p1;
        s12 += x1 * p2;
        s13 += x1 * p3;
      }
      const double row0[4] = {s00, s01, s02, s03};
      const double row1[4] = {s10, s11, s12, s13};
      std::copy(row0, row0 + jn, c + r0 * ldc + j0);
      if (pair) std::copy(row1, row1 + jn, c + (r0 + 1) * ldc + j0);
    }
  }
}

// One float per element: decode |x| = m * 2^shift quanta, split m << shift
// at the radix-2^48 digit boundary, add both parts with the float's sign.
// Branch-free apart from the top-plane guard: the negation is (v ^ s) - s
// with s = 0 or -1.
void exact_sum_add_scalar(std::int64_t* planes, std::int64_t stride,
                          const float* x, std::int64_t n) {
  constexpr std::uint64_t kMask = (1ULL << kExactSumDigitBits) - 1;
  for (std::int64_t e = 0; e < n; ++e) {
    const auto bits = std::bit_cast<std::uint32_t>(x[e]);
    const std::uint32_t exp = (bits >> 23) & 0xFFU;
    const std::uint64_t m =
        (bits & 0x7FFFFFU) | (exp != 0 ? 0x800000U : 0U);
    const std::uint32_t shift = exp != 0 ? exp - 1 : 0;
    const std::uint32_t k = shift / kExactSumDigitBits;
    const std::uint32_t off = shift % kExactSumDigitBits;
    const auto lo = static_cast<std::int64_t>((m << off) & kMask);
    const auto hi = static_cast<std::int64_t>(m >> (kExactSumDigitBits - off));
    const std::int64_t s = -static_cast<std::int64_t>(bits >> 31);
    planes[k * stride + e] += (lo ^ s) - s;
    if (k + 1 < kExactSumDigits) planes[(k + 1) * stride + e] += (hi ^ s) - s;
  }
}

void pack_signs_scalar(const float* src, std::uint64_t* dst,
                       std::int64_t nbits) {
  const std::int64_t nwords = (nbits + 63) / 64;
  for (std::int64_t w = 0; w < nwords; ++w) dst[w] = 0;
  for (std::int64_t i = 0; i < nbits; ++i) {
    if (src[i] >= 0.0F) {
      dst[i / 64] |= (1ULL << (i % 64));
    }
  }
}

void unpack_signs_scalar(const std::uint64_t* src, float* dst,
                         std::int64_t nbits) {
  for (std::int64_t i = 0; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

void xor_words_scalar(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::int64_t nwords) {
  for (std::int64_t w = 0; w < nwords; ++w) out[w] = a[w] ^ b[w];
}

std::uint64_t popcount_words_scalar(const std::uint64_t* a,
                                    std::int64_t nwords) {
  std::uint64_t total = 0;
  for (std::int64_t w = 0; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w]));
  }
  return total;
}

std::uint64_t hamming_words_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::int64_t nwords) {
  std::uint64_t total = 0;
  for (std::int64_t w = 0; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

constexpr Kernels kScalar = {
    axpy_scalar,           scale_scalar,          add_scalar,
    sub_scalar,            mul_scalar,            relu_scalar,
    relu_backward_scalar,  matmul_tile_scalar,    matmul_bt_tile_scalar,
    exact_sum_add_scalar,  pack_signs_scalar,     unpack_signs_scalar,
    xor_words_scalar,      popcount_words_scalar, hamming_words_scalar,
};

/// Overlay `tier` onto `base`: non-null tier entries win.
Kernels overlay(const Kernels& base, const Kernels* tier) {
  if (tier == nullptr) return base;
  Kernels out = base;
  if (tier->axpy_f32 != nullptr) out.axpy_f32 = tier->axpy_f32;
  if (tier->scale_f32 != nullptr) out.scale_f32 = tier->scale_f32;
  if (tier->add_f32 != nullptr) out.add_f32 = tier->add_f32;
  if (tier->sub_f32 != nullptr) out.sub_f32 = tier->sub_f32;
  if (tier->mul_f32 != nullptr) out.mul_f32 = tier->mul_f32;
  if (tier->relu_f32 != nullptr) out.relu_f32 = tier->relu_f32;
  if (tier->relu_backward_f32 != nullptr) {
    out.relu_backward_f32 = tier->relu_backward_f32;
  }
  if (tier->matmul_tile != nullptr) out.matmul_tile = tier->matmul_tile;
  if (tier->matmul_bt_tile != nullptr) {
    out.matmul_bt_tile = tier->matmul_bt_tile;
  }
  if (tier->exact_sum_add != nullptr) out.exact_sum_add = tier->exact_sum_add;
  if (tier->pack_signs != nullptr) out.pack_signs = tier->pack_signs;
  if (tier->unpack_signs != nullptr) out.unpack_signs = tier->unpack_signs;
  if (tier->xor_words != nullptr) out.xor_words = tier->xor_words;
  if (tier->popcount_words != nullptr) {
    out.popcount_words = tier->popcount_words;
  }
  if (tier->hamming_words != nullptr) out.hamming_words = tier->hamming_words;
  return out;
}

/// Fully-resolved table per tier. Higher tiers inherit everything a lower
/// tier accelerates that they do not override (e.g. AVX-512 reuses the AVX2
/// bit kernels — an AVX-512 CPU always supports AVX2).
std::array<Kernels, 4> build_tables() {
  std::array<Kernels, 4> t{};
  t[static_cast<std::size_t>(util::SimdTier::Scalar)] = kScalar;
  t[static_cast<std::size_t>(util::SimdTier::Neon)] = kScalar;
  const Kernels avx2 = overlay(kScalar, detail::avx2_table());
  t[static_cast<std::size_t>(util::SimdTier::Avx2)] = avx2;
  t[static_cast<std::size_t>(util::SimdTier::Avx512)] =
      overlay(avx2, detail::avx512_table());
  return t;
}

const std::array<Kernels, 4>& tables() {
  static const std::array<Kernels, 4> t = build_tables();
  return t;
}

}  // namespace

const Kernels& detail::scalar_table() { return kScalar; }

const Kernels& kernels() { return kernels_for(util::active_simd()); }

const Kernels& kernels_for(util::SimdTier tier) {
  // Tier values normally come from util::active_simd()/set_simd_tier(),
  // which clamp to detected support. An explicit request for a tier whose
  // TU was compiled without the ISA still resolves to a valid (scalar-
  // backed) table; executing a wider table than the CPU supports is the
  // caller's bug — always force tiers through util::set_simd_tier().
  return tables()[static_cast<std::size_t>(tier)];
}

}  // namespace fhdnn::simd
