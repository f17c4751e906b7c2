// NEON kernel tier (aarch64, where Advanced SIMD is baseline — no extra
// target flags needed, but the TU still compiles with -ffp-contract=off so
// the separate vmul/vadd intrinsics below are never fused into fmla; fused
// multiply-add rounds once instead of twice and would break the
// bit-exactness contract against the scalar oracle).
//
// pack/unpack are left to the scalar tier (null entries): without a
// movemask instruction the NEON bit-extraction dance buys little over the
// scalar loop, and the popcount/XOR kernels below carry the hot packed-HD
// path via the native vcnt instruction. exact_sum_add is left to the
// scalar tier too: two 64-bit lanes have not been shown to beat its
// branch-free loop. relu, relu backward and the matmul tile are left to
// the scalar tier until NEON versions can be built and measured.
#include "util/simd.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace fhdnn::simd::detail {

namespace {

void axpy_neon(float* y, float a, const float* x, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    vst1q_f32(y + i, vaddq_f32(vy, vmulq_f32(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_neon(float* out, const float* x, float a, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_neon(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_neon(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_neon(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void xor_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::int64_t nwords) {
  std::int64_t w = 0;
  for (; w + 2 <= nwords; w += 2) {
    vst1q_u64(out + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  for (; w < nwords; ++w) out[w] = a[w] ^ b[w];
}

/// Per-128-bit popcount via vcnt (bytewise) + pairwise widening adds.
inline std::uint64_t popcount128(uint8x16_t v) {
  return vaddvq_u64(
      vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
}

std::uint64_t popcount_words_neon(const std::uint64_t* a,
                                  std::int64_t nwords) {
  std::uint64_t total = 0;
  std::int64_t w = 0;
  for (; w + 2 <= nwords; w += 2) {
    total += popcount128(vreinterpretq_u8_u64(vld1q_u64(a + w)));
  }
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w]));
  }
  return total;
}

std::uint64_t hamming_words_neon(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords) {
  std::uint64_t total = 0;
  std::int64_t w = 0;
  for (; w + 2 <= nwords; w += 2) {
    const uint64x2_t x = veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w));
    total += popcount128(vreinterpretq_u8_u64(x));
  }
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

/// The 4 x 16 tile as four 4 x 4 quarters, eight float64x2_t double
/// accumulators each.
void matmul_bt_tile_neon(const float* a, std::int64_t lda, std::int64_t rows,
                         const float* panel, std::int64_t k, float* c,
                         std::int64_t ldc, std::int64_t cols) {
  // Rows past `rows` recompute row 0 and are never stored.
  const float* a0 = a;
  const float* a1 = a + (rows > 1 ? lda : 0);
  const float* a2 = a + (rows > 2 ? 2 * lda : 0);
  const float* a3 = a + (rows > 3 ? 3 * lda : 0);
  for (std::int64_t q = 0; q * 4 < cols; ++q) {
    float64x2_t lo0 = vdupq_n_f64(0.0), lo1 = vdupq_n_f64(0.0);
    float64x2_t lo2 = vdupq_n_f64(0.0), lo3 = vdupq_n_f64(0.0);
    float64x2_t hi0 = vdupq_n_f64(0.0), hi1 = vdupq_n_f64(0.0);
    float64x2_t hi2 = vdupq_n_f64(0.0), hi3 = vdupq_n_f64(0.0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float32x4_t p = vld1q_f32(panel + kk * kTileCols + q * 4);
      const float64x2_t plo = vcvt_f64_f32(vget_low_f32(p));
      const float64x2_t phi = vcvt_high_f64_f32(p);
      const float64x2_t v0 = vdupq_n_f64(static_cast<double>(a0[kk]));
      const float64x2_t v1 = vdupq_n_f64(static_cast<double>(a1[kk]));
      const float64x2_t v2 = vdupq_n_f64(static_cast<double>(a2[kk]));
      const float64x2_t v3 = vdupq_n_f64(static_cast<double>(a3[kk]));
      lo0 = vaddq_f64(lo0, vmulq_f64(v0, plo));
      hi0 = vaddq_f64(hi0, vmulq_f64(v0, phi));
      lo1 = vaddq_f64(lo1, vmulq_f64(v1, plo));
      hi1 = vaddq_f64(hi1, vmulq_f64(v1, phi));
      lo2 = vaddq_f64(lo2, vmulq_f64(v2, plo));
      hi2 = vaddq_f64(hi2, vmulq_f64(v2, phi));
      lo3 = vaddq_f64(lo3, vmulq_f64(v3, plo));
      hi3 = vaddq_f64(hi3, vmulq_f64(v3, phi));
    }
    const float64x2_t lo[4] = {lo0, lo1, lo2, lo3};
    const float64x2_t hi[4] = {hi0, hi1, hi2, hi3};
    const std::int64_t jn = cols - q * 4 < 4 ? cols - q * 4 : 4;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float32x4_t out = vcvt_high_f32_f64(vcvt_f32_f64(lo[r]), hi[r]);
      float* dst = c + r * ldc + q * 4;
      if (jn == 4) {
        vst1q_f32(dst, out);
      } else {
        float buf[4];
        vst1q_f32(buf, out);
        for (std::int64_t j = 0; j < jn; ++j) dst[j] = buf[j];
      }
    }
  }
}

constexpr Kernels kNeon = {
    axpy_neon, scale_neon, add_neon,
    sub_neon,  mul_neon,
    nullptr /*relu_f32: scalar*/, nullptr /*relu_backward_f32: scalar*/,
    nullptr /*matmul_tile: scalar*/, matmul_bt_tile_neon,
    nullptr /*exact_sum_add: scalar*/,
    nullptr /*pack_signs: scalar*/,
    nullptr /*unpack_signs: scalar*/, xor_words_neon,
    popcount_words_neon, hamming_words_neon,
};

}  // namespace

const Kernels* neon_table() { return &kNeon; }

}  // namespace fhdnn::simd::detail

#else  // !aarch64

namespace fhdnn::simd::detail {

const Kernels* neon_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
