// AVX-512 kernel tier: 16-lane float kernels (elementwise, relu
// compare-and-blend, an up-to-8 x 16 matmul tile of zmm float
// accumulators), a 4 x 16 matmul_bt tile (eight zmm double accumulators)
// and the 8-lane exact-sum digit-plane add. Compiled with
// -mavx512f -mavx512bw -mno-fma -ffp-contract=off (src/util/CMakeLists.txt)
// for the same bit-exactness contract as the AVX2 tier — separate multiply
// and add per element, no reassociated reductions.
//
// The bit kernels are deliberately absent from this table: the dispatcher
// overlays AVX-512 on top of the resolved AVX2 table (an AVX-512 CPU
// always supports AVX2), and the Muła popcount there already saturates
// load bandwidth; the VPOPCNTDQ extension that would beat it is not part
// of the avx512f+bw baseline this TU targets.
#include "util/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <bit>

namespace fhdnn::simd::detail {

namespace {

void axpy_avx512(float* y, float a, const float* x, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_add_ps(vy, _mm512_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx512(float* out, const float* x, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_avx512(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        out + i, _mm512_add_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_avx512(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        out + i, _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_avx512(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

/// Lanes where x < 0 (_CMP_LT_OQ: false for NaN and -0.0) become +0.0;
/// every other lane keeps x — std::max(x, 0.0f) exactly. A vector max
/// would not be: it returns its second operand on NaN and either zero.
void relu_avx512(float* out, const float* x, std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto lanes = static_cast<__mmask16>(
        n - i >= 16 ? 0xFFFFU : (1U << (n - i)) - 1U);
    const __m512 v = _mm512_maskz_loadu_ps(lanes, x + i);
    const __mmask16 neg = _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ);
    _mm512_mask_storeu_ps(out + i, lanes, _mm512_mask_mov_ps(v, neg, zero));
  }
}

/// Lanes where x <= 0 (_CMP_LE_OQ: false for NaN) become +0.0; the rest
/// take g.
void relu_backward_avx512(float* out, const float* g, const float* x,
                          std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto lanes = static_cast<__mmask16>(
        n - i >= 16 ? 0xFFFFU : (1U << (n - i)) - 1U);
    const __mmask16 off = _mm512_cmp_ps_mask(
        _mm512_maskz_loadu_ps(lanes, x + i), zero, _CMP_LE_OQ);
    _mm512_mask_storeu_ps(
        out + i, lanes,
        _mm512_mask_mov_ps(_mm512_maskz_loadu_ps(lanes, g + i), off, zero));
  }
}

/// R rows x up to 16 columns of c = A * b: one zmm float accumulator per
/// row, a masked load of b row kk (tail columns read as zero and are
/// never stored), then a separate multiply and add per row.
template <int R>
void matmul_tile_rows_avx512(const float* a, std::int64_t a_rs,
                             std::int64_t a_ks, const float* b,
                             std::int64_t ldb, std::int64_t k, float* c,
                             std::int64_t ldc, __mmask16 lanes) {
  __m512 acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m512 vb = _mm512_maskz_loadu_ps(lanes, b + kk * ldb);
    const float* ak = a + kk * a_ks;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_add_ps(acc[r],
                             _mm512_mul_ps(_mm512_set1_ps(ak[r * a_rs]), vb));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) _mm512_mask_storeu_ps(c + r * ldc, lanes, acc[r]);
}

void matmul_tile_avx512(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                        std::int64_t rows, const float* b, std::int64_t ldb,
                        std::int64_t k, float* c, std::int64_t ldc,
                        std::int64_t cols) {
  using RowsFn = void (*)(const float*, std::int64_t, std::int64_t,
                          const float*, std::int64_t, std::int64_t, float*,
                          std::int64_t, __mmask16);
  static constexpr RowsFn kByRows[kGemmRows] = {
      matmul_tile_rows_avx512<1>, matmul_tile_rows_avx512<2>,
      matmul_tile_rows_avx512<3>, matmul_tile_rows_avx512<4>,
      matmul_tile_rows_avx512<5>, matmul_tile_rows_avx512<6>,
      matmul_tile_rows_avx512<7>, matmul_tile_rows_avx512<8>,
  };
  kByRows[rows - 1](a, a_rs, a_ks, b, ldb, k, c, ldc,
                    static_cast<__mmask16>((1U << cols) - 1U));
}

/// The 4 x 16 tile: each __m512d lane is one output's double accumulator.
/// The maskz_ conversion form with an all-ones mask is the plain
/// conversion; it sidesteps GCC 12's spurious -Wmaybe-uninitialized on the
/// _mm512_undefined_* pass-through operand of _mm512_cvtps_pd.
void matmul_bt_tile_avx512(const float* a, std::int64_t lda, std::int64_t rows,
                           const float* panel, std::int64_t k, double* c,
                           std::int64_t ldc, std::int64_t cols) {
  constexpr __mmask8 kAll = 0xFF;
  // Rows past `rows` recompute row 0 and are never stored.
  const float* a0 = a;
  const float* a1 = a + (rows > 1 ? lda : 0);
  const float* a2 = a + (rows > 2 ? 2 * lda : 0);
  const float* a3 = a + (rows > 3 ? 3 * lda : 0);
  __m512d lo0 = _mm512_setzero_pd(), lo1 = _mm512_setzero_pd();
  __m512d lo2 = _mm512_setzero_pd(), lo3 = _mm512_setzero_pd();
  __m512d hi0 = _mm512_setzero_pd(), hi1 = _mm512_setzero_pd();
  __m512d hi2 = _mm512_setzero_pd(), hi3 = _mm512_setzero_pd();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* p = panel + kk * kTileCols;
    const __m512d plo = _mm512_maskz_cvtps_pd(kAll, _mm256_loadu_ps(p));
    const __m512d phi = _mm512_maskz_cvtps_pd(kAll, _mm256_loadu_ps(p + 8));
    const __m512d v0 = _mm512_set1_pd(static_cast<double>(a0[kk]));
    const __m512d v1 = _mm512_set1_pd(static_cast<double>(a1[kk]));
    const __m512d v2 = _mm512_set1_pd(static_cast<double>(a2[kk]));
    const __m512d v3 = _mm512_set1_pd(static_cast<double>(a3[kk]));
    lo0 = _mm512_add_pd(lo0, _mm512_mul_pd(v0, plo));
    hi0 = _mm512_add_pd(hi0, _mm512_mul_pd(v0, phi));
    lo1 = _mm512_add_pd(lo1, _mm512_mul_pd(v1, plo));
    hi1 = _mm512_add_pd(hi1, _mm512_mul_pd(v1, phi));
    lo2 = _mm512_add_pd(lo2, _mm512_mul_pd(v2, plo));
    hi2 = _mm512_add_pd(hi2, _mm512_mul_pd(v2, phi));
    lo3 = _mm512_add_pd(lo3, _mm512_mul_pd(v3, plo));
    hi3 = _mm512_add_pd(hi3, _mm512_mul_pd(v3, phi));
  }
  const __m512d lo[4] = {lo0, lo1, lo2, lo3};
  const __m512d hi[4] = {hi0, hi1, hi2, hi3};
  // Columns 0-7 from lo, 8-15 from hi, masked to the first `cols`.
  const unsigned mask = (1U << cols) - 1U;
  for (std::int64_t r = 0; r < rows; ++r) {
    _mm512_mask_storeu_pd(c + r * ldc, static_cast<__mmask8>(mask & 0xFFU),
                          lo[r]);
    if (cols > 8) {
      _mm512_mask_storeu_pd(c + r * ldc + 8, static_cast<__mmask8>(mask >> 8U),
                            hi[r]);
    }
  }
}

/// Eight elements per step, one per 64-bit lane: decode each float into
/// (k, lo, hi), then visit each plane some nonzero lane touches once, with
/// masked adds (lane adds lo where k == j and hi where k == j - 1) — two
/// planes when the eight floats share a digit, as aggregated updates of
/// one magnitude do. The tail step runs the same body on a zero-padded
/// copy of the floats under a lane mask.
/// k = shift / 48 is (shift * 1366) >> 16, exact for shift <= 253, and 48k
/// is (k << 5) + (k << 4): avx512f has no 64-bit multiply (that is DQ).
/// The maskz_ forms with an all-ones mask are the plain operations; they
/// sidestep GCC 12's spurious -Wmaybe-uninitialized (see the tile above).
void exact_sum_add_avx512(std::int64_t* planes, std::int64_t stride,
                          const float* x, std::int64_t n) {
  constexpr __mmask8 kAll = 0xFF;
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i exp_mask = _mm512_set1_epi64(0xFF);
  const __m512i man_mask = _mm512_set1_epi64(0x7FFFFF);
  const __m512i implicit = _mm512_set1_epi64(0x800000);
  const __m512i sign_bit = _mm512_set1_epi64(0x80000000LL);
  const __m512i digit_mask =
      _mm512_set1_epi64((1LL << kExactSumDigitBits) - 1);
  const __m512i radix = _mm512_set1_epi64(kExactSumDigitBits);
  const __m512i recip = _mm512_set1_epi64(1366);
  const __m512i three = _mm512_set1_epi64(3);
  const __m512i zero = _mm512_setzero_si512();
  for (std::int64_t e = 0; e < n; e += 8) {
    const std::int64_t rem = n - e;
    const float* src = x + e;
    float tail[8] = {};
    __mmask8 lanes = kAll;
    if (rem < 8) {
      for (std::int64_t i = 0; i < rem; ++i) tail[i] = x[e + i];
      src = tail;
      lanes = static_cast<__mmask8>((1U << rem) - 1U);
    }
    const __m512i bits = _mm512_maskz_cvtepu32_epi64(
        kAll, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
    const __m512i exp =
        _mm512_and_si512(_mm512_maskz_srli_epi64(kAll, bits, 23), exp_mask);
    const __mmask8 normal = _mm512_test_epi64_mask(exp, exp);
    const __m512i man = _mm512_and_si512(bits, man_mask);
    const __m512i m = _mm512_mask_or_epi64(man, normal, man, implicit);
    const __m512i shift = _mm512_mask_sub_epi64(exp, normal, exp, one);
    const __m512i k = _mm512_maskz_srli_epi64(
        kAll, _mm512_maskz_mul_epu32(kAll, shift, recip), 16);
    const __m512i off = _mm512_sub_epi64(
        shift, _mm512_add_epi64(_mm512_maskz_slli_epi64(kAll, k, 5),
                                _mm512_maskz_slli_epi64(kAll, k, 4)));
    const __m512i lo = _mm512_and_si512(
        _mm512_maskz_sllv_epi64(kAll, m, off), digit_mask);
    const __m512i hi = _mm512_maskz_srlv_epi64(
        kAll, m, _mm512_sub_epi64(radix, off));
    const __mmask8 neg = _mm512_test_epi64_mask(bits, sign_bit);
    const __m512i slo = _mm512_mask_sub_epi64(lo, neg, zero, lo);
    const __m512i shi = _mm512_mask_sub_epi64(hi, neg, zero, hi);
    // Planes k and k + 1 of every lane with m != 0, OR-reduced.
    const __m512i lane_planes = _mm512_maskz_sllv_epi64(
        _mm512_test_epi64_mask(m, m), three, k);
    const __m256i half =
        _mm256_or_si256(_mm512_maskz_extracti64x4_epi64(0xF, lane_planes, 0),
                        _mm512_maskz_extracti64x4_epi64(0xF, lane_planes, 1));
    const __m128i quarter = _mm_or_si128(_mm256_castsi256_si128(half),
                                         _mm256_extracti128_si256(half, 1));
    auto touched = static_cast<unsigned>(_mm_cvtsi128_si64(
        _mm_or_si128(quarter, _mm_unpackhi_epi64(quarter, quarter))));
    for (touched &= (1U << kExactSumDigits) - 1U; touched != 0;
         touched &= touched - 1) {
      const std::int64_t j = std::countr_zero(touched);
      std::int64_t* p = planes + j * stride + e;
      __m512i d = _mm512_maskz_loadu_epi64(lanes, p);
      d = _mm512_mask_add_epi64(
          d, _mm512_cmpeq_epi64_mask(k, _mm512_set1_epi64(j)), d, slo);
      d = _mm512_mask_add_epi64(
          d, _mm512_cmpeq_epi64_mask(k, _mm512_set1_epi64(j - 1)), d, shi);
      _mm512_mask_storeu_epi64(p, lanes, d);
    }
  }
}

void pack_signs_avx512(const float* src, std::uint64_t* dst,
                       std::int64_t nbits) {
  // One 16-bit compare mask per vector; four vectors fill a 64-bit word.
  // _CMP_GE_OQ matches scalar `>=`: NaN packs as 0, ±0 packs as 1.
  const __m512 zero = _mm512_setzero_ps();
  const std::int64_t full_words = nbits / 64;
  for (std::int64_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (int g = 0; g < 4; ++g) {
      const __m512 v = _mm512_loadu_ps(src + w * 64 + g * 16);
      const std::uint64_t m = _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
      word |= m << (g * 16);
    }
    dst[w] = word;
  }
  const std::int64_t rem = nbits - full_words * 64;
  if (rem > 0) {
    std::uint64_t word = 0;
    for (std::int64_t i = 0; i < rem; ++i) {
      if (src[full_words * 64 + i] >= 0.0F) word |= (1ULL << i);
    }
    dst[full_words] = word;
  }
}

void unpack_signs_avx512(const std::uint64_t* src, float* dst,
                         std::int64_t nbits) {
  const __m512 pos = _mm512_set1_ps(1.0F);
  const __m512 neg = _mm512_set1_ps(-1.0F);
  std::int64_t i = 0;
  for (; i + 16 <= nbits; i += 16) {
    const __mmask16 m =
        static_cast<__mmask16>((src[i / 64] >> (i % 64)) & 0xFFFFULL);
    _mm512_storeu_ps(dst + i, _mm512_mask_blend_ps(m, neg, pos));
  }
  for (; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

constexpr Kernels kAvx512 = {
    axpy_avx512,         scale_avx512,
    add_avx512,          sub_avx512,
    mul_avx512,          relu_avx512,
    relu_backward_avx512, matmul_tile_avx512,
    matmul_bt_tile_avx512,
    exact_sum_add_avx512,
    pack_signs_avx512,   unpack_signs_avx512,
    nullptr /*xor_words: AVX2*/,
    nullptr /*popcount_words: AVX2*/, nullptr /*hamming_words: AVX2*/,
};

}  // namespace

const Kernels* avx512_table() { return &kAvx512; }

}  // namespace fhdnn::simd::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace fhdnn::simd::detail {

const Kernels* avx512_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
